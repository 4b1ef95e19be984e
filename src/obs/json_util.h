// Minimal JSON reading/writing helpers shared by the file formats: the
// time series, the metrics registry, the HTML report's data block and the
// bench records.
//
// JsonCursor is a recursive-descent reader covering exactly the subset the
// dcrd schemas emit — objects, arrays, numbers, strings, true/false/null —
// with a SkipValue escape hatch for forward compatibility. Offline tooling
// path only: it allocates freely and is never near the simulation hot loop.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dcrd {

struct JsonCursor {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
  void Fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
  }
  void SkipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }
  [[nodiscard]] bool Peek(char c) {
    SkipWs();
    return pos < text.size() && text[pos] == c;
  }
  bool Expect(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    Fail(std::string("expected '") + c + "'");
    return false;
  }
  bool ReadString(std::string* out) {
    if (!Expect('"')) return false;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\' && pos < text.size()) {
        const char esc = text[pos++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          default: c = esc; break;
        }
      }
      out->push_back(c);
    }
    if (pos >= text.size()) {
      Fail("unterminated string");
      return false;
    }
    ++pos;  // closing quote
    return true;
  }
  bool ReadDouble(double* out) {
    SkipWs();
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    const auto result = std::from_chars(begin, end, *out);
    if (result.ec != std::errc{}) {
      Fail("expected number");
      return false;
    }
    pos = static_cast<std::size_t>(result.ptr - text.data());
    return true;
  }
  bool ReadU64(std::uint64_t* out) {
    double value = 0;
    if (!ReadDouble(&value)) return false;
    *out = value < 0 ? 0 : static_cast<std::uint64_t>(value);
    return true;
  }
  bool ReadI64(std::int64_t* out) {
    double value = 0;
    if (!ReadDouble(&value)) return false;
    *out = static_cast<std::int64_t>(value);
    return true;
  }
  // Skips any well-formed value — the forward-compatibility escape hatch
  // for keys a newer writer added.
  bool SkipValue() {
    SkipWs();
    if (pos >= text.size()) {
      Fail("unexpected end of input");
      return false;
    }
    const char c = text[pos];
    if (c == '"') {
      std::string ignored;
      return ReadString(&ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos;
      SkipWs();
      if (Peek(close)) {
        ++pos;
        return true;
      }
      while (ok()) {
        if (c == '{') {
          std::string key;
          if (!ReadString(&key) || !Expect(':')) return false;
        }
        if (!SkipValue()) return false;
        SkipWs();
        if (Peek(',')) {
          ++pos;
          continue;
        }
        return Expect(close);
      }
      return false;
    }
    if (c == 't') {
      pos += 4;
      return true;
    }
    if (c == 'f') {
      pos += 5;
      return true;
    }
    if (c == 'n') {
      pos += 4;
      return true;
    }
    double ignored = 0;
    return ReadDouble(&ignored);
  }
  // Iterates an object's members: calls fn(key) positioned at the value;
  // fn must consume exactly the value.
  template <typename Fn>
  bool ReadObject(Fn&& fn) {
    if (!Expect('{')) return false;
    if (Peek('}')) {
      ++pos;
      return true;
    }
    while (ok()) {
      std::string key;
      if (!ReadString(&key) || !Expect(':')) return false;
      if (!fn(key)) return false;
      SkipWs();
      if (Peek(',')) {
        ++pos;
        continue;
      }
      return Expect('}');
    }
    return false;
  }
  // Iterates an array: calls fn() positioned at each element.
  template <typename Fn>
  bool ReadArray(Fn&& fn) {
    if (!Expect('[')) return false;
    if (Peek(']')) {
      ++pos;
      return true;
    }
    while (ok()) {
      if (!fn()) return false;
      SkipWs();
      if (Peek(',')) {
        ++pos;
        continue;
      }
      return Expect(']');
    }
    return false;
  }
  bool ReadU64Array(std::vector<std::uint64_t>* out) {
    out->clear();
    return ReadArray([&] {
      std::uint64_t value = 0;
      if (!ReadU64(&value)) return false;
      out->push_back(value);
      return true;
    });
  }
};

inline void WriteU64Array(std::ostream& os,
                          const std::vector<std::uint64_t>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ',';
    os << values[i];
  }
  os << ']';
}

inline void WriteI64Array(std::ostream& os,
                          const std::vector<std::int64_t>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ',';
    os << values[i];
  }
  os << ']';
}

// Writes `s` as a quoted JSON string: `"` and `\` are escaped, newline
// and tab become \n and \t, and other control characters are dropped.
// Names are code-chosen identifiers, but a stray quote or newline must not
// corrupt the document.
inline void WriteJsonEscaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) os << c;
    }
  }
  os << '"';
}

}  // namespace dcrd
