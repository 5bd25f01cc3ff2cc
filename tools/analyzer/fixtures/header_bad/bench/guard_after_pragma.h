#pragma once
#ifndef BENCH_GUARD_H
#define BENCH_GUARD_H
#endif
