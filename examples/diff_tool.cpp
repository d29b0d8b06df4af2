// diff_tool: line-based file diff built on the sparse parallel LCS.
//
// Classic diff pipeline: hash each line to a symbol, find the LCS of the
// two line-hash sequences (the unchanged lines), report the rest as
// edits.  Sparse LCS is exactly the right engine: real files share most
// lines, so L (matching line pairs) is near-linear while the dense DP
// grid would be quadratic.
//
// Usage: diff_tool [fileA fileB]       (without args: built-in demo)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lcs/lcs.hpp"

namespace {

std::vector<std::string> read_lines(const char* path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> demo_a() {
  return {"#include <stdio.h>", "", "int main() {",
          "  printf(\"hello\\n\");", "  return 0;", "}"};
}

std::vector<std::string> demo_b() {
  return {"#include <stdio.h>", "#include <stdlib.h>", "",
          "int main() {", "  printf(\"hello, world\\n\");", "  return 0;",
          "}"};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cordon::lcs;
  std::vector<std::string> a_lines, b_lines;
  if (argc == 3) {
    a_lines = read_lines(argv[1]);
    b_lines = read_lines(argv[2]);
  } else {
    a_lines = demo_a();
    b_lines = demo_b();
    std::printf("(no files given: diffing built-in demo snippets)\n\n");
  }

  // Intern lines to symbols.
  std::unordered_map<std::string, std::uint32_t> intern;
  auto symbolize = [&](const std::vector<std::string>& lines) {
    std::vector<std::uint32_t> out;
    out.reserve(lines.size());
    for (const auto& l : lines) {
      auto [it, fresh] = intern.emplace(
          l, static_cast<std::uint32_t>(intern.size()));
      (void)fresh;
      out.push_back(it->second);
    }
    return out;
  };
  auto a = symbolize(a_lines);
  auto b = symbolize(b_lines);

  // Sparse LCS, then recover one optimal match chain (the common lines).
  auto pairs = match_pairs_soa(a, b);
  auto res = lcs_parallel(pairs);
  auto chain = recover_chain(pairs, res);

  // Emit a unified-style diff from the common chain.
  std::size_t ai = 0, bj = 0, removed = 0, added = 0;
  auto flush_gap = [&](std::size_t until_a, std::size_t until_b) {
    for (; ai < until_a; ++ai, ++removed)
      std::printf("- %s\n", a_lines[ai].c_str());
    for (; bj < until_b; ++bj, ++added)
      std::printf("+ %s\n", b_lines[bj].c_str());
  };
  for (auto [ci, cj] : chain) {
    flush_gap(ci, cj);
    std::printf("  %s\n", a_lines[ai].c_str());
    ++ai;
    ++bj;
  }
  flush_gap(a_lines.size(), b_lines.size());
  std::printf("\n%zu common, %zu removed, %zu added  (L=%zu pairs, "
              "rounds=%llu)\n",
              chain.size(), removed, added, pairs.size(),
              static_cast<unsigned long long>(res.stats.rounds));
  return 0;
}
