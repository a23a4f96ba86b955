#include "src/util/flags.h"

#include <cstdlib>
#include <stdexcept>

namespace lottery {
namespace {

std::string BadValue(const std::string& name, const std::string& text,
                     const char* expected) {
  return "--" + name + "='" + text + "' is not " + expected;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      // Bare --name is a boolean; values always use --name=value so that
      // positional arguments after a boolean flag are unambiguous.
      values_[body] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : default_value;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  const std::string& text = it->second;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw std::invalid_argument(BadValue(name, text, "an integer"));
  }
  return value;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  const std::string& text = it->second;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw std::invalid_argument(BadValue(name, text, "a number"));
  }
  return value;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  return it->second != "false" && it->second != "0";
}

}  // namespace lottery
