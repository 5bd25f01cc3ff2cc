#include <algorithm>

#include "rules.h"

namespace surfnet::analyze {

namespace {

bool in_tree(const std::string& rel, const char* tree) {
  const std::string prefix = std::string(tree) + "/";
  return rel.rfind(prefix, 0) == 0;
}

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::Punct && t.text == s;
}

}  // namespace

void rule_lexer(const AnalyzerContext& ctx, std::vector<Finding>& out) {
  for (const FileModel& f : ctx.files)
    for (const LexError& err : f.lex_errors)
      out.push_back({f.rel_path, err.line, "lexer", err.message,
                     err.message + "; the file cannot be analyzed reliably "
                     "past this point"});
}

void rule_unordered(const AnalyzerContext& ctx, std::vector<Finding>& out) {
  for (const FileModel& f : ctx.files) {
    // Determinism-relevant trees only: library results and bench records.
    if (!in_tree(f.rel_path, "src") && !in_tree(f.rel_path, "bench"))
      continue;
    if (f.unordered.empty()) continue;
    std::map<std::string, int> declared;
    for (const UnorderedDecl& d : f.unordered) declared[d.name] = d.line;

    const std::vector<Token>& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      // Range-for over a declared container: for ( decl : expr ).
      if (toks[i].kind == TokKind::Ident && toks[i].text == "for" &&
          i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
        const std::size_t close = match_forward(toks, i + 1);
        std::size_t colon = 0;
        for (std::size_t j = i + 2; j + 1 < close; ++j)
          if (is_punct(toks[j], ":")) {
            colon = j;
            break;
          }
        if (!colon) continue;
        for (std::size_t j = colon + 1; j + 1 < close; ++j) {
          auto it = toks[j].kind == TokKind::Ident
                        ? declared.find(toks[j].text)
                        : declared.end();
          if (it == declared.end()) continue;
          out.push_back(
              {f.rel_path, toks[j].line, "unordered-state", it->first,
               "iterating '" + it->first + "' (std::unordered_* declared "
               "line " + std::to_string(it->second) + "): order is "
               "implementation-defined and leaks into results/traces/"
               "metrics; copy into a sorted vector first"});
          break;
        }
        continue;
      }
      // Iterator-based walk or order-sensitive accumulation:
      // name.begin()/cbegin()/rbegin().
      if (toks[i].kind == TokKind::Ident && i + 2 < toks.size() &&
          is_punct(toks[i + 1], ".") &&
          (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin" ||
           toks[i + 2].text == "rbegin")) {
        auto it = declared.find(toks[i].text);
        if (it == declared.end()) continue;
        out.push_back(
            {f.rel_path, toks[i].line, "unordered-state", it->first,
             "taking '" + it->first + ".begin()' (std::unordered_* declared "
             "line " + std::to_string(it->second) + "): iteration order is "
             "implementation-defined; copy into a sorted vector first"});
      }
    }
  }
}

namespace {

// -- Token patterns for the determinism/hygiene rules ----------------------
//
// Comments never reach the token stream and literal contents lex as
// String/CharLit, so a name inside either can never fire.

/// Where a pattern's name must sit to match.
enum class Shape {
  Name,         ///< the identifier anywhere
  Include,      ///< `#include <name>`
  StdName,      ///< `std::name`
  StdCall,      ///< `std::name(`
  Call,         ///< `name(`, however qualified
  CCall,        ///< the C function: `name(`, `::name(` or `std::name(`;
                ///< not `other::name(`, a member call or a declaration
  NullaryCall,  ///< CCall without `std::`, with `()`, `(0)`, `(NULL)` or
                ///< `(nullptr)` as its arguments
  StdoutCall,   ///< `name(stdout`
};

/// Identifiers that may directly precede a call expression; any other
/// identifier before `name(` makes it a declaration (`long time() const`).
bool starts_expression(const std::string& word) {
  for (const char* kw : {"return", "case", "throw", "else", "do",
                         "co_return", "co_yield"})
    if (word == kw) return true;
  return false;
}

struct Pattern {
  const char* key;   ///< finding key and message subject
  const char* name;  ///< identifier or header the pattern anchors on
  Shape shape;
};

const std::vector<Pattern> kWallclockPatterns = {
    {"std::rand", "rand", Shape::StdName},
    {"srand", "srand", Shape::Call},
    {"std::random_device", "random_device", Shape::Name},
    {"system_clock", "system_clock", Shape::Name},
    {"std::time", "time", Shape::StdCall},
    {"time()", "time", Shape::NullaryCall},
    {"gettimeofday", "gettimeofday", Shape::Name},
};

const std::vector<Pattern> kStdioPatterns = {
    {"std::cout", "cout", Shape::StdName},
    {"std::cerr", "cerr", Shape::StdName},
    {"<iostream>", "iostream", Shape::Include},
    {"printf", "printf", Shape::CCall},
    {"fprintf(stdout)", "fprintf", Shape::StdoutCall},
    {"puts", "puts", Shape::CCall},
};

const std::vector<Pattern> kEventCorePatterns = {
    {"std::chrono", "chrono", Shape::Include},
    {"std::chrono", "chrono", Shape::StdName},
    {"wall clock", "steady_clock", Shape::Name},
    {"wall clock", "system_clock", Shape::Name},
    {"wall clock", "high_resolution_clock", Shape::Name},
    {"clock()", "clock", Shape::CCall},
    {"time()", "time", Shape::CCall},
    {"std::unordered_* container", "unordered_map", Shape::Include},
    {"std::unordered_* container", "unordered_map", Shape::Name},
    {"std::unordered_* container", "unordered_set", Shape::Include},
    {"std::unordered_* container", "unordered_set", Shape::Name},
    {"std::unordered_* container", "unordered_multimap", Shape::Include},
    {"std::unordered_* container", "unordered_multimap", Shape::Name},
    {"std::unordered_* container", "unordered_multiset", Shape::Include},
    {"std::unordered_* container", "unordered_multiset", Shape::Name},
};

bool matches(const std::vector<Token>& t, std::size_t i, const Pattern& p) {
  auto punct_at = [&](std::size_t j, const char* s) {
    return j < t.size() && is_punct(t[j], s);
  };
  auto ident_at = [&](std::size_t j, const char* s) {
    return j < t.size() && t[j].kind == TokKind::Ident && t[j].text == s;
  };
  if (t[i].kind == TokKind::PpInclude)
    return p.shape == Shape::Include &&
           t[i].text == std::string("<") + p.name;
  if (!ident_at(i, p.name)) return false;
  const bool qualified = i >= 1 && is_punct(t[i - 1], "::");
  const bool std_qualified = qualified && i >= 2 && ident_at(i - 2, "std");
  // `::name(`: the `::` follows no scope name (`return ::time(0)`).
  const bool global =
      qualified && (i < 2 || (t[i - 2].kind == TokKind::Ident
                         ? starts_expression(t[i - 2].text)
                         : !is_punct(t[i - 2], ">")));
  const bool call = punct_at(i + 1, "(");
  const bool member =
      i >= 1 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
  // In a re-lexed `#define NAME body`, NAME is not a declarator.
  const bool declaration = i >= 1 && t[i - 1].kind == TokKind::Ident &&
                           !starts_expression(t[i - 1].text) &&
                           !(i >= 2 && ident_at(i - 2, "define"));
  const bool c_call = call && !member && !declaration;
  switch (p.shape) {
    case Shape::Name: return true;
    case Shape::Include: return false;
    case Shape::StdName: return std_qualified;
    case Shape::StdCall: return std_qualified && call;
    case Shape::Call: return call;
    case Shape::CCall: return c_call && (!qualified || global || std_qualified);
    case Shape::StdoutCall: return call && ident_at(i + 2, "stdout");
    case Shape::NullaryCall: {
      if (!c_call || (qualified && !global)) return false;
      const bool null_arg =
          ident_at(i + 2, "NULL") || ident_at(i + 2, "nullptr") ||
          (i + 2 < t.size() && t[i + 2].kind == TokKind::Number &&
           t[i + 2].text == "0");
      return punct_at(i + (null_arg ? 3 : 2), ")");
    }
  }
  return false;
}

/// The file's tokens plus, after each non-include directive, its body
/// re-lexed at the directive's line: a `#define` or `#if` body is code
/// the patterns must see.
std::vector<Token> pattern_tokens(const FileModel& f) {
  std::vector<Token> out;
  out.reserve(f.tokens.size());
  for (const Token& tok : f.tokens) {
    out.push_back(tok);
    if (tok.kind != TokKind::PpOther) continue;
    for (Token inner : lex(tok.text).tokens) {
      inner.line = tok.line;
      out.push_back(std::move(inner));
    }
  }
  return out;
}

void scan(const FileModel& f, const std::vector<Token>& toks,
          const std::vector<Pattern>& patterns, const char* rule,
          const std::string& why, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i)
    for (const Pattern& p : patterns)
      if (matches(toks, i, p))
        out.push_back({f.rel_path, toks[i].line, rule, p.key,
                       std::string(p.key) + why});
}

bool is_wallclock_tree(const std::string& rel) {
  for (const char* tree : {"src", "bench", "tests", "examples"})
    if (in_tree(rel, tree)) return true;
  return false;
}

/// `#ifndef NAME_H`: an include guard instead of the pragma.
bool is_ifndef_guard(const Token& directive) {
  if (directive.kind != TokKind::PpOther) return false;
  const std::vector<Token> t = lex(directive.text).tokens;
  return t.size() >= 2 && t[0].text == "ifndef" &&
         t[1].kind == TokKind::Ident && t[1].text.size() >= 3 &&
         t[1].text.ends_with("_H");
}

}  // namespace

void rule_hygiene(const AnalyzerContext& ctx, std::vector<Finding>& out) {
  for (const FileModel& f : ctx.files) {
    const std::string& rel = f.rel_path;
    const std::vector<Token> toks = pattern_tokens(f);

    // The ArgParser owns the only wall-clock escape hatch.
    if (is_wallclock_tree(rel) && rel != "bench/bench_common.h")
      scan(f, toks, kWallclockPatterns, "wallclock-seeding",
           " breaks deterministic seeding; derive randomness from an "
           "explicit seed (util/rng.h)",
           out);
    if (in_tree(rel, "src"))
      scan(f, toks, kStdioPatterns, "stdio-in-src",
           " in library code; report through the obs layer (src/obs) "
           "instead",
           out);
    if (rel.rfind("src/netsim/event", 0) == 0 ||
        rel.rfind("src/netsim/workload", 0) == 0)
      scan(f, toks, kEventCorePatterns, "event-core-purity",
           " in the event engine; virtual time comes from the event queue "
           "only and handler state must iterate deterministically "
           "(vectors/sorted), or the slot-engine bitwise equivalence breaks",
           out);

    if (!f.is_header) continue;
    if (f.tokens.empty() || f.tokens[0].kind != TokKind::PpOther ||
        f.tokens[0].text != "pragma once")
      out.push_back({rel, f.tokens.empty() ? 1 : f.tokens[0].line,
                     "header-hygiene", "pragma-once",
                     "first non-comment line must be '#pragma once'"});
    for (const Token& tok : f.tokens)
      if (is_ifndef_guard(tok))
        out.push_back({rel, tok.line, "header-hygiene", "ifndef-guard",
                       "#ifndef include guard; use #pragma once"});
  }
}

std::vector<Finding> run_rules(const AnalyzerContext& ctx) {
  std::vector<Finding> findings;
  rule_lexer(ctx, findings);
  rule_layering(ctx, findings);
  rule_rng(ctx, findings);
  rule_unordered(ctx, findings);
  rule_trace_schema(ctx, findings);
  rule_contracts(ctx, findings);
  rule_hygiene(ctx, findings);

  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule && a.key == b.key;
                             }),
                 findings.end());
  return findings;
}

}  // namespace surfnet::analyze
