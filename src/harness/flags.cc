#include "harness/flags.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace faastcc::harness {

namespace {

bool parse_i64(const std::string& v, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long r = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || errno == ERANGE || end != v.c_str() + v.size()) {
    return false;
  }
  *out = static_cast<int64_t>(r);
  return true;
}

bool parse_u64(const std::string& v, uint64_t* out) {
  if (!v.empty() && v[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long r = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || errno == ERANGE || end != v.c_str() + v.size()) {
    return false;
  }
  *out = static_cast<uint64_t>(r);
  return true;
}

bool parse_double(const std::string& v, double* out) {
  errno = 0;
  char* end = nullptr;
  const double r = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size()) return false;
  *out = r;
  return true;
}

}  // namespace

Flags::Flags(std::string prog, std::string description)
    : prog_(std::move(prog)), description_(std::move(description)) {}

void Flags::add(Flag flag) { flags_.push_back(std::move(flag)); }

const Flags::Flag* Flags::find(std::string_view name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void Flags::boolean(std::string_view name, std::string_view help, bool* out) {
  Flag f;
  f.name = name;
  f.help = help;
  f.is_bool = true;
  f.default_text = *out ? "true" : "false";
  f.apply = [out](const std::string& v) {
    if (v.empty() || v == "true" || v == "1") {
      *out = true;
    } else if (v == "false" || v == "0") {
      *out = false;
    } else {
      return false;
    }
    return true;
  };
  add(std::move(f));
}

void Flags::integer(std::string_view name, std::string_view help, int* out) {
  Flag f;
  f.name = name;
  // One-character names are built, not assigned from the literal: GCC 12
  // misreports the literal assignment as an overlapping copy (-Wrestrict).
  f.value_name = std::string("n");
  f.help = help;
  f.default_text = std::to_string(*out);
  f.apply = [out](const std::string& v) {
    int64_t r = 0;
    if (!parse_i64(v, &r) || r < INT32_MIN || r > INT32_MAX) return false;
    *out = static_cast<int>(r);
    return true;
  };
  add(std::move(f));
}

void Flags::u64(std::string_view name, std::string_view help, uint64_t* out) {
  Flag f;
  f.name = name;
  f.value_name = std::string("n");
  f.help = help;
  f.default_text = std::to_string(*out);
  f.apply = [out](const std::string& v) { return parse_u64(v, out); };
  add(std::move(f));
}

void Flags::size(std::string_view name, std::string_view help, size_t* out) {
  Flag f;
  f.name = name;
  f.value_name = "n|inf";
  f.help = help;
  f.default_text = *out == SIZE_MAX ? "inf" : std::to_string(*out);
  f.apply = [out](const std::string& v) {
    if (v == "inf") {
      *out = SIZE_MAX;
      return true;
    }
    uint64_t r = 0;
    if (!parse_u64(v, &r)) return false;
    *out = static_cast<size_t>(r);
    return true;
  };
  add(std::move(f));
}

void Flags::real(std::string_view name, std::string_view help, double* out) {
  Flag f;
  f.name = name;
  f.value_name = std::string("x");
  f.help = help;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", *out);
  f.default_text = buf;
  f.apply = [out](const std::string& v) { return parse_double(v, out); };
  add(std::move(f));
}

void Flags::str(std::string_view name, std::string_view help,
                std::string* out) {
  Flag f;
  f.name = name;
  f.value_name = std::string("s");
  f.help = help;
  f.default_text = *out;
  f.apply = [out](const std::string& v) {
    *out = v;
    return true;
  };
  add(std::move(f));
}

void Flags::duration_ms(std::string_view name, std::string_view help,
                        Duration* out) {
  Flag f;
  f.name = name;
  f.value_name = "ms";
  f.help = help;
  f.default_text = std::to_string(*out / 1000);
  f.apply = [out](const std::string& v) {
    int64_t r = 0;
    if (!parse_i64(v, &r)) return false;
    *out = milliseconds(r);
    return true;
  };
  add(std::move(f));
}

void Flags::custom(std::string_view name, std::string_view value_name,
                   std::string_view help,
                   std::function<bool(const std::string&)> parse) {
  Flag f;
  f.name = name;
  f.value_name = value_name;
  f.help = help;
  f.apply = std::move(parse);
  add(std::move(f));
}

bool Flags::parse(int argc, char** argv) {
  error_.clear();
  help_requested_ = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      error_ = "unexpected argument '" + std::string(arg) + "'";
      return false;
    }
    const size_t eq = arg.find('=');
    const std::string_view name =
        arg.substr(2, eq == std::string_view::npos ? std::string_view::npos
                                                   : eq - 2);
    const Flag* f = find(name);
    if (f == nullptr) {
      error_ = "unknown flag '--" + std::string(name) + "'";
      return false;
    }
    std::string value;
    if (eq != std::string_view::npos) {
      value = std::string(arg.substr(eq + 1));
    } else if (!f->is_bool) {
      error_ = "flag '--" + f->name + "' needs a value (--" + f->name + "=<" +
               f->value_name + ">)";
      return false;
    }
    if (!f->apply(value)) {
      error_ = "bad value for '--" + f->name + "': '" + value + "'";
      return false;
    }
  }
  return true;
}

std::string Flags::usage() const {
  std::string out = "usage: " + prog_ + " [options]";
  if (!description_.empty()) out += "\n" + description_;
  out += "\n";
  size_t width = 0;
  std::vector<std::string> lhs;
  lhs.reserve(flags_.size());
  for (const Flag& f : flags_) {
    std::string spec = "--" + f.name;
    if (!f.value_name.empty()) spec += "=<" + f.value_name + ">";
    width = std::max(width, spec.size());
    lhs.push_back(std::move(spec));
  }
  for (size_t i = 0; i < flags_.size(); ++i) {
    const Flag& f = flags_[i];
    out += "  " + lhs[i];
    out.append(width + 2 - lhs[i].size(), ' ');
    out += f.help;
    if (!f.default_text.empty()) out += " (default " + f.default_text + ")";
    out += "\n";
  }
  out += "  --help";
  out.append(width + 2 - 6, ' ');
  out += "print this message\n";
  return out;
}

std::vector<std::string> Flags::split_csv(std::string_view csv) {
  std::vector<std::string> out;
  if (csv.empty()) return out;
  size_t pos = 0;
  for (;;) {
    const size_t comma = csv.find(',', pos);
    out.emplace_back(csv.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace faastcc::harness
