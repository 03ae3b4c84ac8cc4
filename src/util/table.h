// Markdown table writer used by every benchmark binary so the harness
// output can be pasted directly into EXPERIMENTS.md.

#ifndef PNN_UTIL_TABLE_H_
#define PNN_UTIL_TABLE_H_

#include <string>
#include <vector>

namespace pnn {

/// Collects rows of strings and prints an aligned GitHub-flavored markdown
/// table to stdout.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; each cell is formatted by the caller (see Cell helpers).
  void AddRow(std::vector<std::string> cells);

  /// Prints the table, aligned, to stdout.
  void Print() const;

  static constexpr int kMinSignificantDigits = 4;
  /// Formats a double with `precision` significant digits, but never
  /// fewer than kMinSignificantDigits (trailing zeros dropped, as %g does;
  /// large values print every integer digit, never in exponent form).
  static std::string Num(double v, int precision = kMinSignificantDigits);
  /// Formats an integer.
  static std::string Int(long long v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pnn

#endif  // PNN_UTIL_TABLE_H_
