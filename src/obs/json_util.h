// Minimal JSON reading/writing helpers shared by the file formats: the
// time series, the metrics registry, the HTML report's data block, the
// bench records, and the trace and delay-audit JSONL lines.
//
// JsonCursor is the one reader every file the tools read back goes
// through: a strict recursive-descent parser covering exactly the subset
// the dcrd schemas emit — objects, arrays, numbers, strings,
// true/false/null — with a SkipValue escape hatch for keys a newer writer
// added. Integers parse exactly into their target type; a sign on an
// unsigned field, a fraction, an exponent or an out-of-range value is an
// error, never a rounded or truncated number. Offline tooling path only:
// it allocates freely and is never near the simulation hot loop.
#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dcrd {

struct JsonCursor {
  JsonCursor() = default;
  explicit JsonCursor(std::string_view input) : text(input) {}

  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
  // Records the first failure (with its byte offset) and returns false, so
  // readers can `return Fail(...)`.
  bool Fail(std::string_view what) {
    if (error.empty()) {
      error = std::string(what) + " at byte " + std::to_string(pos);
    }
    return false;
  }
  // JSON whitespace only: space, tab, CR, LF.
  void SkipWs() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
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
    return Fail(std::string("expected '") + c + "'");
  }
  // Succeeds when nothing but whitespace is left: one value per text.
  bool ExpectEnd() {
    SkipWs();
    return pos == text.size() || Fail("trailing text");
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
    if (pos >= text.size()) return Fail("unterminated string");
    ++pos;  // closing quote
    return true;
  }
  bool ReadDouble(double* out) {
    SkipWs();
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    const auto result = std::from_chars(begin, end, *out);
    if (result.ec != std::errc{}) return Fail("expected number");
    pos = static_cast<std::size_t>(result.ptr - text.data());
    return true;
  }
  // Reads an integer exactly into T. A sign on an unsigned T, a fraction,
  // an exponent, or a value outside T's range is an error.
  template <typename T>
  bool ReadInt(T* out) {
    SkipWs();
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, *out);
    if (ec == std::errc::result_out_of_range) {
      return Fail("integer out of range");
    }
    if (ec != std::errc{} ||
        (ptr != end && (*ptr == '.' || *ptr == 'e' || *ptr == 'E'))) {
      return Fail("expected integer");
    }
    pos = static_cast<std::size_t>(ptr - text.data());
    return true;
  }
  bool ReadU64(std::uint64_t* out) { return ReadInt(out); }
  bool ReadI64(std::int64_t* out) { return ReadInt(out); }
  // Skips any well-formed value — the forward-compatibility escape hatch
  // for keys a newer writer added.
  bool SkipValue() {
    SkipWs();
    if (pos >= text.size()) return Fail("unexpected end of input");
    const char c = text[pos];
    if (c == '"') {
      std::string ignored;
      return ReadString(&ignored);
    }
    if (c == '{') {
      return ReadObject([this](const std::string&) { return SkipValue(); });
    }
    if (c == '[') return ReadArray([this] { return SkipValue(); });
    for (const std::string_view literal : {"true", "false", "null"}) {
      if (text.substr(pos, literal.size()) == literal) {
        pos += literal.size();
        return true;
      }
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
    std::string key;
    while (ok()) {
      if (!ReadString(&key) || !Expect(':')) return false;
      if (!fn(key)) return false;
      if (Peek(',')) {
        ++pos;
        continue;
      }
      return Expect('}');
    }
    return false;
  }
  // Reads a flat record: an object that must carry every key in `keys`.
  // Calls fn(i) positioned at the value of keys[i]; fn must consume
  // exactly the value. Members not in `keys` are skipped, so files from
  // writers that emitted extra keys still load.
  template <std::size_t N, typename Fn>
  bool ReadRecord(const std::array<std::string_view, N>& keys, Fn&& fn) {
    static_assert(N <= 64);
    std::uint64_t seen = 0;
    const bool read = ReadObject([&](const std::string& key) {
      for (std::size_t i = 0; i < N; ++i) {
        if (key == keys[i]) {
          seen |= std::uint64_t{1} << i;
          return fn(i);
        }
      }
      return SkipValue();
    });
    if (!read) return false;
    for (std::size_t i = 0; i < N; ++i) {
      if ((seen >> i & 1) == 0) {
        return Fail("missing \"" + std::string(keys[i]) + "\"");
      }
    }
    return true;
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

// Streams a JSONL file: calls parse(line, &error) on every line that is
// not whitespace-only. Stops at the first line `parse` rejects and returns
// false, with the line's 1-based number in *bad_line and "<reason>: <first
// 120 bytes of the line>" in *bad_text. Returns true when every line
// parsed.
template <typename Parse>
bool ForEachJsonLine(std::istream& in, Parse&& parse, std::size_t* bad_line,
                     std::string* bad_text) {
  std::string line;
  std::string error;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    error.clear();
    if (!parse(std::string_view(line), &error)) {
      if (bad_line != nullptr) *bad_line = line_no;
      if (bad_text != nullptr) *bad_text = error + ": " + line.substr(0, 120);
      return false;
    }
  }
  return true;
}

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
