// The paper's benchmark programs, written in annotated (CGE) Prolog,
// plus deterministic workload generators for their input data and the
// "large sequential suite" substituted for Tick's large benchmarks in
// Table 3 (see docs/DESIGN.md §4).
#pragma once

#include <string>
#include <vector>

#include "support/common.h"

namespace rapwam {

struct BenchProgram {
  std::string name;
  std::string source;  ///< annotated Prolog text
  std::string goal;    ///< query to run (without "?-")
};

/// Workload scale. Paper sizes are tuned so instruction counts land in
/// the same order of magnitude as Table 2; Small keeps tests fast.
enum class BenchScale { Small, Paper };
/// "small" or "paper"; throws Error naming the string otherwise. The
/// CLI `--scale` flags and the server's "scale" member all parse here.
BenchScale scale_from_name(const std::string& name);

/// The four benchmarks of Table 2: "deriv", "tak", "qsort", "matrix".
BenchProgram bench_program(const std::string& name, BenchScale scale);
std::vector<std::string> small_bench_names();

/// Sequential programs standing in for the "large Prolog benchmarks"
/// of Table 3 (all-solutions queens, naive reverse, big quicksort, big
/// symbolic differentiation).
std::vector<BenchProgram> large_bench_suite(BenchScale scale);

// -- deterministic input generators (exposed for tests) -------------------

/// Arithmetic expression in x with ~`nodes` binary operators.
std::string gen_deriv_expr(int nodes, u32 seed);
/// "[a1,a2,...]" of pseudo-random ints in [0, 10000).
std::string gen_int_list(int n, u32 seed);
/// "[[...],[...],...]" rows x cols matrix of small ints.
std::string gen_matrix_text(int rows, int cols, u32 seed);

}  // namespace rapwam
