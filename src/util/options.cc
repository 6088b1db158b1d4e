#include "util/options.h"

#include <charconv>
#include <system_error>

#include "util/logging.h"

namespace xstream {

namespace {

// Parses all of `text` as one base-10 number, or aborts naming the flag.
template <typename T>
T ParseWhole(const std::string& key, const std::string& text, const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  XS_CHECK(ec == std::errc() && ptr == end && !text.empty())
      << "malformed value for --" << key << ": '" << text << "' (expected " << expected << ")";
  return value;
}

}  // namespace

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    XS_CHECK(arg.rfind("--", 0) == 0) << "malformed option (expected --key=value): " << arg;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_.insert_or_assign(std::move(arg), std::string(1, '1'));
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

std::string Options::GetString(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

int64_t Options::GetInt(const std::string& key, int64_t def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : ParseWhole<int64_t>(key, it->second, "a decimal integer");
}

uint64_t Options::GetUint(const std::string& key, uint64_t def) const {
  auto it = values_.find(key);
  // from_chars takes no sign for unsigned types, so "-1" is malformed here.
  return it == values_.end()
             ? def
             : ParseWhole<uint64_t>(key, it->second, "a non-negative decimal integer");
}

double Options::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : ParseWhole<double>(key, it->second, "a decimal number");
}

bool Options::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes") {
    return true;
  }
  XS_CHECK(v == "0" || v == "false" || v == "no")
      << "malformed value for --" << key << ": '" << v << "' (expected 1/0/true/false/yes/no)";
  return false;
}

bool Options::Has(const std::string& key) const { return values_.count(key) > 0; }

void Options::Set(const std::string& key, const std::string& value) { values_[key] = value; }

}  // namespace xstream
