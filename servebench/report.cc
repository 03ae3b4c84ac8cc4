#include "servebench/report.h"

#include <cmath>
#include <cstdio>

namespace servebench {

void Report::Add(const std::string& name, double value, const std::string& unit,
                 bool in_json) {
  if (!std::isfinite(value)) value = 0.0;
  std::printf("%s %.6g %s\n", name.c_str(), value, unit.c_str());
  if (in_json) json_.push_back({name, value, unit});
}

void Report::Note(const std::string& name, const std::string& value) {
  std::printf("%s %s -\n", name.c_str(), value.c_str());
}

void Report::PrintJson(bool correct, size_t attempted, size_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < json_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                json_[i].name.c_str(), json_[i].value, json_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace servebench
