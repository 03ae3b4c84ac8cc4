// Metric output: every metric as one "name value unit" line (6 significant
// figures) as it is measured, and the run's result as one JSON object on the
// last line of stdout, values printed with all their digits.

#ifndef SERVEBENCH_REPORT_H_
#define SERVEBENCH_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace servebench {

class Report {
 public:
  /// Prints the metric line; `in_json` metrics also go into the result.
  void Add(const std::string& name, double value, const std::string& unit,
           bool in_json = true);
  /// A descriptive "name value -" line (host, seed, policy).
  void Note(const std::string& name, const std::string& value);
  void PrintJson(bool correct, size_t attempted, size_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> json_;
};

}  // namespace servebench

#endif  // SERVEBENCH_REPORT_H_
