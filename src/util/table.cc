#include "src/util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/check.h"

namespace pnn {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  PNN_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> width(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) width[i] = std::max(width[i], row[i].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf(" %-*s |", static_cast<int>(width[i]), row[i].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t i = 0; i < headers_.size(); ++i) {
    std::printf("%s|", std::string(width[i] + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string Table::Num(double v, int precision) {
  // Never fewer than kMinSignificantDigits: a bench cell rounded to one
  // figure ("2e+04") hides every difference worth reading. Values with at
  // least that many integer digits print in full instead of switching to
  // exponent notation.
  int digits = std::max(precision, kMinSignificantDigits);
  char buf[352];
  if (std::isfinite(v) && std::fabs(v) >= std::pow(10.0, digits - 1)) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  }
  return buf;
}

std::string Table::Int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

}  // namespace pnn
