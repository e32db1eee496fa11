#include "base/structure.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/enumerate.h"

namespace amalgam {

Structure::Structure(SchemaRef schema, std::size_t domain_size)
    : schema_(std::move(schema)), n_(domain_size) {
  rel_tables_.resize(schema_->num_relations());
  for (int r = 0; r < schema_->num_relations(); ++r) {
    rel_tables_[r].assign(TableSize(schema_->relation(r).arity), 0);
  }
  fn_tables_.resize(schema_->num_functions());
  for (int f = 0; f < schema_->num_functions(); ++f) {
    fn_tables_[f].assign(TableSize(schema_->function(f).arity), 0);
  }
}

std::size_t Structure::TableSize(int arity) const {
  std::size_t size = 1;
  for (int i = 0; i < arity; ++i) size *= n_;
  return size;
}

std::size_t Structure::EncodeIndex(std::span<const Elem> tuple) const {
  std::size_t idx = 0;
  for (std::size_t i = tuple.size(); i-- > 0;) {
    assert(tuple[i] < n_);
    idx = idx * n_ + tuple[i];
  }
  return idx;
}

bool Structure::Holds(int rel, std::span<const Elem> tuple) const {
  assert(static_cast<int>(tuple.size()) == schema_->relation(rel).arity);
  return rel_tables_[rel][EncodeIndex(tuple)] != 0;
}

bool Structure::Holds2(int rel, Elem a, Elem b) const {
  const Elem t[2] = {a, b};
  return Holds(rel, t);
}

bool Structure::Holds1(int rel, Elem a) const {
  const Elem t[1] = {a};
  return Holds(rel, t);
}

void Structure::SetHolds(int rel, std::span<const Elem> tuple, bool value) {
  assert(static_cast<int>(tuple.size()) == schema_->relation(rel).arity);
  rel_tables_[rel][EncodeIndex(tuple)] = value ? 1 : 0;
}

void Structure::SetHolds2(int rel, Elem a, Elem b, bool value) {
  const Elem t[2] = {a, b};
  SetHolds(rel, t, value);
}

void Structure::SetHolds1(int rel, Elem a, bool value) {
  const Elem t[1] = {a};
  SetHolds(rel, t, value);
}

Elem Structure::Apply(int fn, std::span<const Elem> args) const {
  assert(static_cast<int>(args.size()) == schema_->function(fn).arity);
  return fn_tables_[fn][EncodeIndex(args)];
}

Elem Structure::Apply1(int fn, Elem a) const {
  const Elem t[1] = {a};
  return Apply(fn, t);
}

Elem Structure::Apply2(int fn, Elem a, Elem b) const {
  const Elem t[2] = {a, b};
  return Apply(fn, t);
}

void Structure::SetFunction(int fn, std::span<const Elem> args, Elem value) {
  assert(static_cast<int>(args.size()) == schema_->function(fn).arity);
  assert(value < n_);
  fn_tables_[fn][EncodeIndex(args)] = value;
}

void Structure::SetFunction1(int fn, Elem a, Elem value) {
  const Elem t[1] = {a};
  SetFunction(fn, t, value);
}

void Structure::SetFunction2(int fn, Elem a, Elem b, Elem value) {
  const Elem t[2] = {a, b};
  SetFunction(fn, t, value);
}

std::vector<std::vector<Elem>> Structure::Tuples(int rel) const {
  std::vector<std::vector<Elem>> result;
  const int arity = schema_->relation(rel).arity;
  const auto& table = rel_tables_[rel];
  std::vector<Elem> tuple(arity);
  for (std::size_t idx = 0; idx < table.size(); ++idx) {
    if (!table[idx]) continue;
    std::size_t rest = idx;
    for (int i = 0; i < arity; ++i) {
      tuple[i] = static_cast<Elem>(rest % n_);
      rest /= n_;
    }
    result.push_back(tuple);
  }
  return result;
}

std::size_t Structure::TupleCount(int rel) const {
  std::size_t count = 0;
  for (std::uint8_t bit : rel_tables_[rel]) count += bit;
  return count;
}

Structure Structure::ApplyPermutation(std::span<const Elem> perm) const {
  assert(perm.size() == n_);
  Structure result(schema_, n_);
  for (int r = 0; r < schema_->num_relations(); ++r) {
    const int arity = schema_->relation(r).arity;
    for (auto& tuple : Tuples(r)) {
      std::vector<Elem> renamed(arity);
      for (int i = 0; i < arity; ++i) renamed[i] = perm[tuple[i]];
      result.SetHolds(r, renamed, true);
    }
  }
  for (int f = 0; f < schema_->num_functions(); ++f) {
    const int arity = schema_->function(f).arity;
    std::vector<Elem> args(arity);
    ForEachTuple(static_cast<int>(n_), arity, [&](const std::vector<int>& t) {
      for (int i = 0; i < arity; ++i) args[i] = static_cast<Elem>(t[i]);
      Elem value = Apply(f, args);
      std::vector<Elem> renamed(arity);
      for (int i = 0; i < arity; ++i) renamed[i] = perm[args[i]];
      result.SetFunction(f, renamed, perm[value]);
    });
  }
  return result;
}

std::string Structure::EncodeContent() const {
  std::string out;
  AppendContent(out);
  return out;
}

void Structure::AppendContent(std::string& out) const {
  // Domain size and function values are varint-encoded: single-byte
  // encodings alias as soon as a value reaches 256, which silently merges
  // distinct structures in every key built on top of this encoding.
  AppendFullWidth(out, static_cast<std::uint32_t>(n_));
  for (const auto& table : rel_tables_) {
    out.append(reinterpret_cast<const char*>(table.data()), table.size());
  }
  for (const auto& table : fn_tables_) {
    for (Elem value : table) AppendFullWidth(out, value);
  }
}

void Structure::AppendPacked(std::string& out) const {
  AppendFullWidth(out, static_cast<std::uint32_t>(n_));
  for (const auto& table : rel_tables_) {
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
      byte |= static_cast<std::uint8_t>(table[i] << (i % 8));
      if (i % 8 == 7) {
        out.push_back(static_cast<char>(byte));
        byte = 0;
      }
    }
    if (table.size() % 8 != 0) out.push_back(static_cast<char>(byte));
  }
  for (const auto& table : fn_tables_) {
    for (Elem value : table) AppendFullWidth(out, value);
  }
}

std::size_t Structure::AssignPacked(const char* data) {
  const auto* in = reinterpret_cast<const std::uint8_t*>(data);
  std::size_t pos = 0;
  auto read_varint = [&] {
    std::uint32_t value = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t byte = in[pos++];
      value |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
    }
  };
  n_ = read_varint();
  for (int r = 0; r < schema_->num_relations(); ++r) {
    std::vector<std::uint8_t>& table = rel_tables_[r];
    table.resize(TableSize(schema_->relation(r).arity));
    for (std::size_t base = 0; base < table.size(); base += 8) {
      std::uint8_t byte = in[pos++];
      const std::size_t end = std::min(table.size(), base + 8);
      for (std::size_t i = base; i < end; ++i, byte >>= 1) {
        table[i] = byte & 1;
      }
    }
  }
  for (int f = 0; f < schema_->num_functions(); ++f) {
    std::vector<Elem>& table = fn_tables_[f];
    table.resize(TableSize(schema_->function(f).arity));
    for (Elem& value : table) value = read_varint();
  }
  return pos;
}

bool Structure::operator==(const Structure& other) const {
  return n_ == other.n_ && rel_tables_ == other.rel_tables_ &&
         fn_tables_ == other.fn_tables_;
}

std::string Structure::ToString() const {
  std::ostringstream os;
  os << "structure(n=" << n_ << ")";
  for (int r = 0; r < schema_->num_relations(); ++r) {
    os << " " << schema_->relation(r).name << "={";
    bool first = true;
    for (const auto& tuple : Tuples(r)) {
      if (!first) os << ",";
      first = false;
      os << "(";
      for (std::size_t i = 0; i < tuple.size(); ++i) {
        if (i > 0) os << " ";
        os << tuple[i];
      }
      os << ")";
    }
    os << "}";
  }
  for (int f = 0; f < schema_->num_functions(); ++f) {
    os << " " << schema_->function(f).name << "=[";
    for (std::size_t i = 0; i < fn_tables_[f].size(); ++i) {
      if (i > 0) os << " ";
      os << fn_tables_[f][i];
    }
    os << "]";
  }
  return os.str();
}

}  // namespace amalgam
