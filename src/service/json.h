// The JSON reader and writer of the amalgamd JSONL protocol.
//
// No third-party JSON dependency exists in this tree, and the protocol
// needs only the basics: read one request object per line, emit one
// response object per line.
//
// The reader parses a line in one pass into a JsonDocument: one flat array
// of nodes in document order, each holding its type, the index one past
// its subtree, and its scalar (a number as a double, a string as a
// std::string_view). A string without escapes is a view into the parsed
// text itself; only strings with escapes are decoded, once, into a buffer
// the document owns. So the parsed text must outlive the document and
// every view taken from it, and nothing is copied per field: a caller that
// keeps a string copies it itself.
//
// The accepted language is all of JSON, with these rules:
//   - numbers are held as doubles (integers round-trip exactly up to 2^53,
//     far beyond any id or parameter the protocol carries);
//   - \uXXXX escapes outside the BMP must arrive as surrogate pairs (lone
//     surrogates are rejected); other bytes are taken as they come;
//   - objects keep member order and allow duplicate keys (Get returns the
//     first);
//   - nesting deeper than 128 levels is rejected: the reader recurses per
//     level, and a hostile line of brackets must not be able to overflow
//     the daemon's stack.
#ifndef AMALGAM_SERVICE_JSON_H_
#define AMALGAM_SERVICE_JSON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace amalgam {

class JsonDocument;

/// One value inside a JsonDocument: the document and a node index, cheap
/// to copy, valid while the document lives. A default-constructed view is
/// *absent* (a missing member): it tests false and every is_* is false.
class JsonView {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  JsonView() = default;

  explicit operator bool() const { return doc_ != nullptr; }
  bool is_null() const { return Is(Type::kNull); }
  bool is_bool() const { return Is(Type::kBool); }
  bool is_number() const { return Is(Type::kNumber); }
  bool is_string() const { return Is(Type::kString); }
  bool is_array() const { return Is(Type::kArray); }
  bool is_object() const { return Is(Type::kObject); }

  /// The scalar, or false / 0 / "" when this is not one of that type.
  bool boolean() const;
  double number() const;
  std::string_view string() const;

  /// The member named `key` (the first, when keys repeat), or an absent
  /// view (also when this is not an object).
  JsonView Get(std::string_view key) const;

  /// The member as a specific type, or the fallback when absent/mistyped.
  std::string_view GetString(std::string_view key,
                             std::string_view fallback = {}) const;
  /// Numbers outside the int64 range count as mistyped; fractions
  /// truncate toward zero.
  std::int64_t GetInt(std::string_view key, std::int64_t fallback = 0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  /// Walks the direct children: an array's elements, or an object's
  /// members as (key, value). Either range is empty for other types.
  template <bool kMembers>
  class Iterator;
  template <bool kMembers>
  struct Range {
    Iterator<kMembers> first, last;
    Iterator<kMembers> begin() const { return first; }
    Iterator<kMembers> end() const { return last; }
  };
  Range<false> elements() const;
  Range<true> members() const;

  /// The number of elements (array) or members (object); 0 otherwise.
  std::size_t size() const;
  /// True unless this is an array or object with an element or member.
  bool empty() const {
    return !(is_array() || is_object()) || Next().index_ == Skip().index_;
  }
  /// The i-th array element, or an absent view past the end.
  JsonView operator[](std::size_t i) const;

 private:
  friend class JsonDocument;
  JsonView(const JsonDocument* doc, std::uint32_t index)
      : doc_(doc), index_(index) {}
  bool Is(Type type) const;
  // The node after this one (a member key's value), and the node after
  // this value's subtree (its next sibling).
  JsonView Next() const { return JsonView(doc_, index_ + 1); }
  JsonView Skip() const;
  template <bool kMembers>
  Range<kMembers> Children(Type type) const;

  const JsonDocument* doc_ = nullptr;
  std::uint32_t index_ = 0;
};

/// A parsed JSON text. Movable, not copyable. A JsonView points at its
/// document object, so take views after any move; the strings read
/// through them stay valid across a move.
class JsonDocument {
 public:
  /// An empty document: what a text that does not parse yields.
  JsonDocument() = default;

  /// The parsed value, or an absent view when the text did not parse.
  JsonView root() const {
    return nodes_.empty() ? JsonView() : JsonView(this, 0);
  }

 private:
  friend class JsonView;
  friend JsonDocument ParseJson(std::string_view text);
  class Reader;

  struct Node {
    JsonView::Type type = JsonView::Type::kNull;
    bool boolean = false;
    std::uint32_t end = 0;  // index one past this value's subtree
    double number = 0.0;
    std::string_view string;  // kString: the decoded text
  };

  // An object is its node followed by, per member, a key string node and
  // the value's subtree.
  std::vector<Node> nodes_;
  // Decoded escaped strings, allocated once with the text's size (an
  // escape never decodes longer than it is written); the string views
  // point into it.
  std::unique_ptr<char[]> decoded_;
};

template <bool kMembers>
class JsonView::Iterator {
 public:
  using value_type =
      std::conditional_t<kMembers, std::pair<std::string_view, JsonView>,
                         JsonView>;

  value_type operator*() const {
    if constexpr (kMembers) {
      return {at_.string(), at_.Next()};
    } else {
      return at_;
    }
  }
  Iterator& operator++() {
    at_ = kMembers ? at_.Next().Skip() : at_.Skip();
    return *this;
  }
  bool operator==(const Iterator& other) const {
    return at_.index_ == other.at_.index_;
  }

 private:
  friend class JsonView;
  explicit Iterator(JsonView at) : at_(at) {}

  JsonView at_;  // the element, or the member's key
};

// The accessors are inline: a request line's parse walks a few hundred
// nodes through them.

inline bool JsonView::Is(Type type) const {
  return doc_ != nullptr && doc_->nodes_[index_].type == type;
}

inline bool JsonView::boolean() const {
  return is_bool() && doc_->nodes_[index_].boolean;
}

inline double JsonView::number() const {
  return is_number() ? doc_->nodes_[index_].number : 0.0;
}

inline std::string_view JsonView::string() const {
  return is_string() ? doc_->nodes_[index_].string : std::string_view();
}

inline JsonView JsonView::Skip() const {
  return JsonView(doc_, doc_->nodes_[index_].end);
}

template <bool kMembers>
JsonView::Range<kMembers> JsonView::Children(Type type) const {
  if (!Is(type)) {
    return {Iterator<kMembers>(JsonView()), Iterator<kMembers>(JsonView())};
  }
  return {Iterator<kMembers>(Next()), Iterator<kMembers>(Skip())};
}

inline JsonView::Range<false> JsonView::elements() const {
  return Children<false>(Type::kArray);
}

inline JsonView::Range<true> JsonView::members() const {
  return Children<true>(Type::kObject);
}

inline JsonView JsonView::Get(std::string_view key) const {
  for (const auto& [name, value] : members()) {
    if (name == key) return value;
  }
  return JsonView();
}

inline std::string_view JsonView::GetString(std::string_view key,
                                            std::string_view fallback) const {
  const JsonView v = Get(key);
  return v.is_string() ? v.string() : fallback;
}

inline bool JsonView::GetBool(std::string_view key, bool fallback) const {
  const JsonView v = Get(key);
  return v.is_bool() ? v.boolean() : fallback;
}

/// Parses `text` as one JSON value (surrounding whitespace allowed;
/// trailing non-space content is an error). On any syntax error the
/// document is empty. `text` must outlive the result: unescaped strings
/// are views into it.
JsonDocument ParseJson(std::string_view text);

/// `s` with JSON string escaping applied (quotes not included).
std::string JsonEscape(std::string_view s);

/// Serializes a value back to compact JSON (used for echoing request ids):
/// integers below 2^53 without a decimal point, other numbers with 17
/// significant digits, strings re-escaped.
std::string JsonToString(JsonView value);

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_JSON_H_
