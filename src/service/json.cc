#include "service/json.h"

#include <array>
#include <cmath>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>

namespace amalgam {

namespace {

// Containers deeper than this fail to parse: the reader recurses per
// nesting level, so unbounded depth would let one hostile request line
// overflow the stack and kill the daemon. No legitimate protocol payload
// nests anywhere near this deep.
constexpr int kMaxNestingDepth = 128;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// The bytes that end a string's unescaped run: the closing quote, a
// backslash, and the raw control bytes JSON forbids inside strings.
constexpr auto kStringStop = [] {
  std::array<bool, 256> stop{};
  for (int c = 0; c < 0x20; ++c) stop[c] = true;
  stop['"'] = true;
  stop['\\'] = true;
  return stop;
}();

// Writes `cp` as UTF-8 at `out`; returns the end of what was written.
char* AppendUtf8(char* out, std::uint32_t cp) {
  if (cp < 0x80) {
    *out++ = static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out++ = static_cast<char>(0xc0 | (cp >> 6));
    *out++ = static_cast<char>(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    *out++ = static_cast<char>(0xe0 | (cp >> 12));
    *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    *out++ = static_cast<char>(0x80 | (cp & 0x3f));
  } else {
    *out++ = static_cast<char>(0xf0 | (cp >> 18));
    *out++ = static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
    *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    *out++ = static_cast<char>(0x80 | (cp & 0x3f));
  }
  return out;
}

}  // namespace

// One pass over the text, appending each value's node in document order
// and patching a container's `end` when it closes.
class JsonDocument::Reader {
 public:
  Reader(std::string_view text, JsonDocument& doc) : text_(text), doc_(doc) {}

  bool Read() {
    SkipSpace();
    if (!ParseValue()) return false;
    SkipSpace();
    return pos_ == text_.size();  // trailing garbage otherwise
  }

 private:
  using Type = JsonView::Type;

  std::uint32_t Push(Type type) {
    const auto index = static_cast<std::uint32_t>(doc_.nodes_.size());
    Node& node = doc_.nodes_.emplace_back();
    node.type = type;
    node.end = index + 1;
    return index;
  }
  Node& At(std::uint32_t index) { return doc_.nodes_[index]; }

  void SkipSpace() {
    // Protocol lines are compact: the common case is no space at all.
    if (pos_ < text_.size() && static_cast<unsigned char>(text_[pos_]) > ' ') {
      return;
    }
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool ParseValue() {
    if (AtEnd()) return false;
    switch (Peek()) {
      case 'n':
        Push(Type::kNull);
        return ConsumeLiteral("null");
      case 't':
        At(Push(Type::kBool)).boolean = true;
        return ConsumeLiteral("true");
      case 'f':
        Push(Type::kBool);
        return ConsumeLiteral("false");
      case '"':
        return ParseString(At(Push(Type::kString)).string);
      case '[':
        return ParseArray();
      case '{':
        return ParseObject();
      default:
        return ParseNumber(At(Push(Type::kNumber)).number);
    }
  }

  bool ParseNumber(double& out) {
    const std::size_t start = pos_;
    Consume('-');
    while (!AtEnd() && (IsDigit(Peek()) || Peek() == '.' || Peek() == 'e' ||
                        Peek() == 'E' || Peek() == '+' || Peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    return ec == std::errc() && end == text_.data() + pos_;
  }

  bool ParseHex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  // A string with no escape is a view into the text; the first backslash
  // moves the string into the document's decode buffer.
  bool ParseString(std::string_view& out) {
    if (!Consume('"')) return false;
    const std::size_t start = pos_;
    while (!AtEnd() && !kStringStop[static_cast<unsigned char>(Peek())]) {
      ++pos_;
    }
    if (AtEnd()) return false;  // unterminated
    if (Peek() == '"') {
      out = text_.substr(start, pos_++ - start);
      return true;
    }
    return DecodeEscaped(start, out);
  }

  // The rest of the string that starts at `start`, from its first byte
  // that is neither plain nor the closing quote.
  bool DecodeEscaped(std::size_t start, std::string_view& out) {
    if (Peek() != '\\') return false;  // raw control
    if (!doc_.decoded_) doc_.decoded_.reset(new char[text_.size()]);
    char* const begin = doc_.decoded_.get() + decoded_size_;
    std::memcpy(begin, text_.data() + start, pos_ - start);
    char* dst = begin + (pos_ - start);
    while (!AtEnd()) {
      const char c = text_[pos_++];
      if (c == '"') {
        out = std::string_view(begin, static_cast<std::size_t>(dst - begin));
        decoded_size_ += out.size();
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        *dst++ = c;
        continue;
      }
      if (AtEnd()) return false;
      switch (text_[pos_++]) {
        case '"': *dst++ = '"'; break;
        case '\\': *dst++ = '\\'; break;
        case '/': *dst++ = '/'; break;
        case 'b': *dst++ = '\b'; break;
        case 'f': *dst++ = '\f'; break;
        case 'n': *dst++ = '\n'; break;
        case 'r': *dst++ = '\r'; break;
        case 't': *dst++ = '\t'; break;
        case 'u': {
          std::uint32_t cp;
          if (!ParseHex4(cp)) return false;
          if (cp >= 0xd800 && cp <= 0xdbff) {  // high surrogate: need pair
            if (!ConsumeLiteral("\\u")) return false;
            std::uint32_t low;
            if (!ParseHex4(low) || low < 0xdc00 || low > 0xdfff) return false;
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            return false;  // lone low surrogate
          }
          dst = AppendUtf8(dst, cp);
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseArray() {
    const std::uint32_t self = Push(Type::kArray);
    if (!Consume('[') || ++depth_ > kMaxNestingDepth) return false;
    SkipSpace();
    if (!Consume(']')) {
      for (;;) {
        SkipSpace();
        if (!ParseValue()) return false;
        SkipSpace();
        if (Consume(']')) break;
        if (!Consume(',')) return false;
      }
    }
    --depth_;
    At(self).end = static_cast<std::uint32_t>(doc_.nodes_.size());
    return true;
  }

  bool ParseObject() {
    const std::uint32_t self = Push(Type::kObject);
    if (!Consume('{') || ++depth_ > kMaxNestingDepth) return false;
    SkipSpace();
    if (!Consume('}')) {
      for (;;) {
        SkipSpace();
        if (!ParseString(At(Push(Type::kString)).string)) return false;
        SkipSpace();
        if (!Consume(':')) return false;
        SkipSpace();
        if (!ParseValue()) return false;
        SkipSpace();
        if (Consume('}')) break;
        if (!Consume(',')) return false;
      }
    }
    --depth_;
    At(self).end = static_cast<std::uint32_t>(doc_.nodes_.size());
    return true;
  }

  std::string_view text_;
  JsonDocument& doc_;
  std::size_t pos_ = 0;
  std::size_t decoded_size_ = 0;
  int depth_ = 0;
};

JsonDocument ParseJson(std::string_view text) {
  JsonDocument doc;
  // Node indexes are 32-bit; every node consumes at least one byte.
  if (text.size() >= std::numeric_limits<std::uint32_t>::max()) return doc;
  doc.nodes_.reserve(text.size() / 4 + 1);
  if (!JsonDocument::Reader(text, doc).Read()) return JsonDocument();
  return doc;
}

std::size_t JsonView::size() const {
  std::size_t n = 0;
  if (is_object()) {
    for (auto it = members().begin(); it != members().end(); ++it) ++n;
  } else {
    for (auto it = elements().begin(); it != elements().end(); ++it) ++n;
  }
  return n;
}

JsonView JsonView::operator[](std::size_t i) const {
  for (JsonView element : elements()) {
    if (i-- == 0) return element;
  }
  return JsonView();
}

std::int64_t JsonView::GetInt(std::string_view key,
                              std::int64_t fallback) const {
  const JsonView v = Get(key);
  if (!v.is_number()) return fallback;
  // Out-of-range doubles are mistyped input, not a license for UB: the
  // float-to-int conversion is undefined outside the target range
  // (untrusted daemon input reaches this cast directly).
  const double number = v.number();
  if (!(number >= -9.2e18 && number <= 9.2e18)) return fallback;
  return static_cast<std::int64_t>(number);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonToString(JsonView value) {
  if (value.is_bool()) return value.boolean() ? "true" : "false";
  if (value.is_number()) {
    // Integers (the common case: ids, counts) print without a decimal
    // point so they round-trip textually.
    const double number = value.number();
    char buf[32];
    if (number == std::floor(number) &&
        std::abs(number) < 9.007199254740992e15) {
      const auto end = std::to_chars(buf, buf + sizeof(buf),
                                     static_cast<long long>(number)).ptr;
      return std::string(buf, end);
    }
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    return buf;
  }
  if (value.is_string()) return "\"" + JsonEscape(value.string()) + "\"";
  if (value.is_array()) {
    std::string out = "[";
    for (JsonView element : value.elements()) {
      if (out.size() > 1) out += ",";
      out += JsonToString(element);
    }
    return out + "]";
  }
  if (value.is_object()) {
    std::string out = "{";
    for (const auto& [key, member] : value.members()) {
      if (out.size() > 1) out += ",";
      out += "\"" + JsonEscape(key) + "\":" + JsonToString(member);
    }
    return out + "}";
  }
  return "null";
}

}  // namespace amalgam
