// Minimal command-line flag parsing for bench and example binaries.
//
// Syntax: --name=value; bare --name sets a bool flag true. Non-flag
// arguments are collected positionally.

#ifndef SRC_UTIL_FLAGS_H_
#define SRC_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lottery {

class Flags {
 public:
  Flags() = default;
  // Parses argv; does not take ownership. Positional (non --) arguments are
  // kept in order and available via positional().
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  // The whole value must parse (base-10 integer / strtod number); an empty
  // or partly numeric value ("--seconds=1O", "--seed=") throws
  // std::invalid_argument naming the flag.
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lottery

#endif  // SRC_UTIL_FLAGS_H_
