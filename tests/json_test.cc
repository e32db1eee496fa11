// Differential tests of the JSONL protocol's reader (service/json.h)
// against a reference: a plain recursive parser into an owning tree, the
// shape the protocol's reader had before it became one flat pass over
// views. Every seed line and every seeded mutation of it must be accepted
// or rejected by both alike, accepted lines must read back as equal
// values, and ParseRequestLine must survive all of them.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/json.h"
#include "service/protocol.h"

namespace amalgam {
namespace {

// ---- The reference parser ---------------------------------------------------

struct RefValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<RefValue> array;
  std::vector<std::pair<std::string, RefValue>> object;
};

class RefParser {
 public:
  explicit RefParser(std::string_view text) : text_(text) {}

  std::optional<RefValue> Parse() {
    SkipSpace();
    RefValue value;
    if (!ParseValue(value)) return std::nullopt;
    SkipSpace();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  static constexpr int kMaxNestingDepth = 128;

  void SkipSpace() {
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

  bool ParseValue(RefValue& out) {
    if (AtEnd()) return false;
    switch (Peek()) {
      case 'n':
        out.type = RefValue::Type::kNull;
        return ConsumeLiteral("null");
      case 't':
        out.type = RefValue::Type::kBool;
        out.boolean = true;
        return ConsumeLiteral("true");
      case 'f':
        out.type = RefValue::Type::kBool;
        out.boolean = false;
        return ConsumeLiteral("false");
      case '"':
        out.type = RefValue::Type::kString;
        return ParseString(out.string);
      case '[':
        return ParseArray(out);
      case '{':
        return ParseObject(out);
      default:
        out.type = RefValue::Type::kNumber;
        return ParseNumber(out.number);
    }
  }

  bool ParseNumber(double& out) {
    const std::size_t start = pos_;
    Consume('-');
    while (!AtEnd() && ((Peek() >= '0' && Peek() <= '9') || Peek() == '.' ||
                        Peek() == 'e' || Peek() == 'E' || Peek() == '+' ||
                        Peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    return ec == std::errc() && end == text_.data() + pos_;
  }

  static void AppendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
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

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (!AtEnd()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (AtEnd()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp;
          if (!ParseHex4(cp)) return false;
          if (cp >= 0xd800 && cp <= 0xdbff) {
            if (!ConsumeLiteral("\\u")) return false;
            std::uint32_t low;
            if (!ParseHex4(low) || low < 0xdc00 || low > 0xdfff) return false;
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            return false;
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseArray(RefValue& out) {
    if (!Consume('[') || ++depth_ > kMaxNestingDepth) return false;
    out.type = RefValue::Type::kArray;
    SkipSpace();
    if (Consume(']')) return --depth_, true;
    for (;;) {
      RefValue element;
      SkipSpace();
      if (!ParseValue(element)) return false;
      out.array.push_back(std::move(element));
      SkipSpace();
      if (Consume(']')) return --depth_, true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseObject(RefValue& out) {
    if (!Consume('{') || ++depth_ > kMaxNestingDepth) return false;
    out.type = RefValue::Type::kObject;
    SkipSpace();
    if (Consume('}')) return --depth_, true;
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(key)) return false;
      SkipSpace();
      if (!Consume(':')) return false;
      SkipSpace();
      RefValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume('}')) return --depth_, true;
      if (!Consume(',')) return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// ---- Comparison -------------------------------------------------------------

// Empty when `view` reads back exactly as `ref`; otherwise the path of the
// first difference.
std::string Diff(JsonView view, const RefValue& ref, const std::string& path) {
  switch (ref.type) {
    case RefValue::Type::kNull:
      return view.is_null() ? "" : path + ": expected null";
    case RefValue::Type::kBool:
      return view.is_bool() && view.boolean() == ref.boolean
                 ? ""
                 : path + ": expected a bool";
    case RefValue::Type::kNumber: {
      const double number = view.number();
      // Bitwise, so -0.0 and 0.0 differ too.
      return view.is_number() &&
                     std::memcmp(&number, &ref.number, sizeof number) == 0
                 ? ""
                 : path + ": expected the number " + std::to_string(ref.number);
    }
    case RefValue::Type::kString:
      return view.is_string() && view.string() == ref.string
                 ? ""
                 : path + ": expected the string \"" + ref.string + "\"";
    case RefValue::Type::kArray: {
      if (!view.is_array() || view.size() != ref.array.size()) {
        return path + ": expected an array of " +
               std::to_string(ref.array.size());
      }
      std::size_t i = 0;
      for (const JsonView element : view.elements()) {
        const std::string diff =
            Diff(element, ref.array[i], path + "[" + std::to_string(i) + "]");
        if (!diff.empty()) return diff;
        ++i;
      }
      return "";
    }
    case RefValue::Type::kObject: {
      if (!view.is_object() || view.size() != ref.object.size()) {
        return path + ": expected an object of " +
               std::to_string(ref.object.size());
      }
      std::size_t i = 0;
      for (const auto& [key, value] : view.members()) {
        const auto& [ref_key, ref_value] = ref.object[i++];
        if (key != ref_key) return path + ": expected the key " + ref_key;
        const std::string diff = Diff(value, ref_value, path + "." + ref_key);
        if (!diff.empty()) return diff;
      }
      return "";
    }
  }
  return path + ": unknown type";
}

// Runs one input through both parsers and the request parser; returns
// whether it was accepted.
bool CheckOne(const std::string& text) {
  const std::optional<RefValue> ref = RefParser(text).Parse();
  const JsonDocument doc = ParseJson(text);
  const JsonView root = doc.root();
  EXPECT_EQ(static_cast<bool>(root), ref.has_value())
      << "accept/reject differs on: " << text;
  if (root && ref.has_value()) {
    const std::string diff = Diff(root, *ref, "$");
    EXPECT_EQ(diff, "") << "on: " << text;
  }
  // Never throws, never crashes; a text that is not an object is refused
  // before anything else is read from it.
  const ProtocolRequest request = ParseRequestLine(text);
  if (!root.is_object()) {
    EXPECT_EQ(request.error, "malformed request: not a JSON object") << text;
  }
  return ref.has_value();
}

// ---- Seeds ------------------------------------------------------------------

// A line shaped like the cache-hot benchmark's queries: a spec with its
// own schema, two registers, a chain of named states and a rule list that
// repeats guards.
std::string HotReplayShapedLine() {
  const char* guards[] = {"x_new = y_old & red(x_new)",
                          "y_new = x_old & blue(y_new)",
                          "x_old = x_new & y_old != y_new"};
  std::string line =
      R"({"id":1000,"kind":"system","class":"all","schema":{"relations":)"
      R"([["red",1],["blue",1]]},"system":{"registers":["x","y"],"states":[)";
  for (int i = 0; i < 12; ++i) {
    if (i > 0) line += ",";
    line += R"({"name":"s)" + std::to_string(i) + "\"";
    if (i == 0) line += R"(,"initial":true)";
    if (i == 11) line += R"(,"accepting":true)";
    line += "}";
  }
  line += R"(],"rules":[)";
  for (int i = 0; i < 11; ++i) {
    if (i > 0) line += ",";
    line += R"({"from":"s)" + std::to_string(i) + R"(","to":"s)" +
            std::to_string(i + 1) + R"(","guard":")" + guards[i % 3] + "\"}";
  }
  return line + "]}}";
}

std::vector<std::string> Seeds() {
  return {
      // The request examples of docs/OPERATIONS.md.
      R"({"id":1,"kind":"system","class":"all","system":"reach_red"})",
      R"({"id":2,"kind":"words","nfa":"aplus_bplus","system":"zigzag"})",
      R"({"id":3,"kind":"trees","automaton":"two_level","system":"descend"})",
      R"j({"id":4,"kind":"branching","class":"all","system":{"registers":["x"],"states":[{"name":"a","initial":true},{"name":"b","accepting":true}],"rules":[{"from":"a","branches":[{"guard":"E(x_old, x_new)","to":"b"},{"guard":"red(x_new)","to":"b"}]}]}})j",
      R"({"id":2,"op":"stats"})",
      R"({"id":2,"op":"maintain"})",
      R"({"id":2,"op":"sweep","max_files":64})",
      R"({"id":2,"op":"metrics"})",
      R"({"id":3,"op":"recent"})",
      R"({"id":1,"op":"drain"})",
      R"({"id":1,"kind":"system","class":"all","system":"reach_red","trace":true})",
      HotReplayShapedLine(),
      // Every escape, BMP and surrogate-pair \u escapes, raw UTF-8, and
      // the near misses: a lone high or low surrogate, a high surrogate
      // followed by a non-surrogate, short hex, an unknown escape.
      R"({"id":"q\"b\\s\/\b\f\n\r\t","op":"drain"})",
      R"({"id":"é€😀é😀\u0001","op":"drain"})",
      R"({"id":"A","op":"drain"})",
      R"(["\ud83d"])",
      R"(["\ude00"])",
      R"(["\ud83dA"])",
      R"(["\u12"])",
      R"(["\x"])",
      // Scalars, numbers at the edges, whitespace, duplicate keys.
      R"( {"a" : [ 1 , -0 , 0.5 , 1e300 , -1.5e-7 , 12345678901234567890 ] } )",
      R"({"a":1,"a":2,"b":[true,false,null],"c":{},"d":[]})",
      R"(1e999)",
      R"([01, 1., .5, -, +1, 1e, --1])",
      R"("")",
      "null",
      "",
  };
}

TEST(JsonTest, ReaderMatchesTheReferenceOnSeedsAndEveryTruncation) {
  for (const std::string& seed : Seeds()) {
    SCOPED_TRACE(seed);
    CheckOne(seed);
    for (std::size_t cut = 0; cut < seed.size(); ++cut) {
      CheckOne(seed.substr(0, cut));
    }
  }
}

TEST(JsonTest, ReaderMatchesTheReferenceOnSeededMutations) {
  // Byte flips at random offsets, and swaps to the bytes that steer a
  // JSON parser (quotes, escapes, brackets, separators, digits).
  static constexpr char kSyntax[] = "\"\\{}[]:,-.eE0u \x01\x7f\xc3";
  std::mt19937 rng(21);
  std::uint64_t accepted = 0;
  std::uint64_t checked = 0;
  for (const std::string& seed : Seeds()) {
    if (seed.empty()) continue;
    SCOPED_TRACE(seed);
    for (int i = 0; i < 256; ++i) {
      std::string mutated = seed;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits; ++e) {
        const std::size_t at = rng() % mutated.size();
        if (rng() % 2 == 0) {
          mutated[at] = static_cast<char>(mutated[at] ^ (1 + rng() % 255));
        } else {
          mutated[at] = kSyntax[rng() % (sizeof kSyntax - 1)];
        }
      }
      accepted += CheckOne(mutated);
      ++checked;
    }
  }
  // Some mutations land where any byte parses (inside a string, a digit):
  // the accept path was compared too, not only the reject path.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, checked);
}

TEST(JsonTest, NestingBombsAreRefusedAtTheDepthCap) {
  // 128 levels parse; 129 do not, in arrays, objects and mixes, and a
  // line of nothing but brackets fails without overflowing the stack.
  auto arrays = [](int depth) {
    return std::string(depth, '[') + "1" + std::string(depth, ']');
  };
  auto objects = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += R"({"a":)";
    return text + "1" + std::string(depth, '}');
  };
  auto mixed = [](int depth) {
    std::string open, close;
    for (int i = 0; i < depth; ++i) {
      open += i % 2 == 0 ? R"({"a":)" : "[";
      close.insert(0, i % 2 == 0 ? "}" : "]");
    }
    return open + "null" + close;
  };
  for (const auto& shape : {+arrays, +objects, +mixed}) {
    EXPECT_TRUE(CheckOne(shape(127)));
    EXPECT_TRUE(CheckOne(shape(128)));
    EXPECT_FALSE(CheckOne(shape(129)));
    EXPECT_FALSE(CheckOne(shape(200)));
  }
  EXPECT_FALSE(CheckOne(std::string(100000, '[')));
  EXPECT_FALSE(CheckOne(std::string(100000, '{')));
  std::string id_bomb = R"({"id":)" + std::string(100000, '[') + "}";
  EXPECT_FALSE(CheckOne(id_bomb));
}

TEST(JsonTest, EscapedStringsAreDecodedAndPlainOnesAreViewsIntoTheText) {
  const std::string text = R"({"plain":"abc","escaped":"a\nbé😀"})";
  JsonDocument doc = ParseJson(text);
  const JsonView plain = doc.root().Get("plain");
  ASSERT_TRUE(plain.is_string());
  EXPECT_EQ(plain.string(), "abc");
  EXPECT_GE(plain.string().data(), text.data());
  EXPECT_LT(plain.string().data(), text.data() + text.size());
  EXPECT_EQ(doc.root().GetString("escaped"), "a\nb\xc3\xa9\xf0\x9f\x98\x80");
  // A moved document keeps its decoded strings.
  const JsonDocument moved = std::move(doc);
  EXPECT_EQ(moved.root().GetString("escaped"), "a\nb\xc3\xa9\xf0\x9f\x98\x80");
  EXPECT_EQ(JsonToString(moved.root()),
            "{\"plain\":\"abc\",\"escaped\":\"a\\nb\xc3\xa9\xf0\x9f\x98\x80\"}");
}

}  // namespace
}  // namespace amalgam
