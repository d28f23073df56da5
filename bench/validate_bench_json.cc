// Schema validator for bench-harness result files (see bench/harness.h).
// Usage: validate_bench_json <result.json>...
// Exits non-zero (listing the problems) if any file fails validation; CI
// runs this over the smoke-bench artifacts.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.h"

namespace {

using gs::JsonValue;

bool Check(bool ok, const std::string& file, const std::string& what,
           std::vector<std::string>& errors) {
  if (!ok) {
    errors.push_back(file + ": " + what);
  }
  return ok;
}

void Validate(const std::string& file, std::vector<std::string>& errors) {
  std::ifstream in(file);
  if (!in) {
    errors.push_back(file + ": cannot open");
    return;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = JsonValue::Parse(buf.str());
  if (!Check(doc.has_value(), file, "does not parse as JSON", errors)) {
    return;
  }
  if (!Check(doc->is_object(), file, "top level is not an object", errors)) {
    return;
  }

  const JsonValue* version = doc->Find("schema_version");
  Check(version != nullptr && version->is_number() && version->number == 1, file,
        "schema_version missing or != 1", errors);

  const JsonValue* name = doc->Find("benchmark");
  Check(name != nullptr && name->is_string() && !name->string.empty(), file,
        "benchmark missing or empty", errors);

  const JsonValue* scale = doc->Find("scale");
  Check(scale != nullptr && scale->is_string() &&
            (scale->string == "quick" || scale->string == "paper"),
        file, "scale missing or not quick|paper", errors);

  const JsonValue* params = doc->Find("params");
  Check(params != nullptr && params->is_object(), file, "params missing or not an object",
        errors);

  const JsonValue* series = doc->Find("series");
  if (Check(series != nullptr && series->is_array(), file,
            "series missing or not an array", errors)) {
    for (size_t i = 0; i < series->array.size(); ++i) {
      Check(series->array[i].is_object(), file,
            "series[" + std::to_string(i) + "] is not an object", errors);
    }
  }

  const JsonValue* metrics = doc->Find("metrics");
  Check(metrics != nullptr && metrics->is_object(), file,
        "metrics missing or not an object", errors);

  const JsonValue* histograms = doc->Find("histograms");
  Check(histograms != nullptr && histograms->is_object(), file,
        "histograms missing or not an object", errors);

  const JsonValue* stats = doc->Find("stats");
  if (Check(stats != nullptr && stats->is_object(), file,
            "stats missing or not an object", errors)) {
    for (const char* block : {"counters", "gauges", "histograms"}) {
      const JsonValue* sub = stats->Find(block);
      Check(sub != nullptr && sub->is_object(), file,
            std::string("stats.") + block + " missing or not an object", errors);
    }
  }

  // Hardware-free work counts: an object of non-negative integers (empty
  // for a benchmark that runs no event loop).
  const JsonValue* layers = doc->Find("layers");
  if (Check(layers != nullptr && layers->is_object(), file,
            "layers missing or not an object", errors)) {
    for (const auto& [key, value] : layers->object) {
      Check(value.is_number() && value.number >= 0 &&
                std::floor(value.number) == value.number,
            file, "layers." + key + " is not a non-negative integer", errors);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <result.json>...\n", argv[0]);
    return 2;
  }
  std::vector<std::string> errors;
  for (int i = 1; i < argc; ++i) {
    Validate(argv[i], errors);
  }
  if (!errors.empty()) {
    for (const std::string& error : errors) {
      std::fprintf(stderr, "FAIL %s\n", error.c_str());
    }
    return 1;
  }
  std::printf("OK: %d file(s) schema-valid\n", argc - 1);
  return 0;
}
