#pragma once

// Decorator over the decoder seam: forwards every decode to the wrapped
// decoder and, while a tracer is attached, records a "decoder.decode"
// span around it. The simulator and the code-trial engine only see the
// decoder::Decoder interface, so this times the decoder layer from outside
// without touching the library.

#include "decoder/decoder.h"
#include "harness.h"

namespace perfbench {

class TimedDecoder final : public surfnet::decoder::Decoder {
 public:
  explicit TimedDecoder(const surfnet::decoder::Decoder& inner)
      : inner_(&inner) {}

  void attach(Tracer* tracer) { tracer_ = tracer; }

  std::vector<char> decode(
      const surfnet::decoder::DecodeInput& input) const override {
    ScopedSpan span(tracer_, "decoder.decode");
    return inner_->decode(input);
  }
  const std::vector<char>& decode(
      const surfnet::decoder::DecodeInput& input,
      surfnet::decoder::DecodeWorkspace& ws) const override {
    ScopedSpan span(tracer_, "decoder.decode");
    return inner_->decode(input, ws);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  const surfnet::decoder::Decoder* inner_;
  Tracer* tracer_ = nullptr;
};

}  // namespace perfbench
