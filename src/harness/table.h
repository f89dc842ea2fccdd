// Fixed-width table printing for the command-line tools.
#pragma once

#include <string>
#include <vector>

namespace faastcc::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double v, int precision = 1);
std::string fmt_bytes(double v);

}  // namespace faastcc::harness
