#include "solver/intern.h"

#include <cstring>
#include <utility>

#include "util/hash.h"

namespace amalgam {

int ConfigInterner::InternCanonical(ShapeKey canon) {
  const std::int32_t* found = by_canonical_hash_.Find(
      canon.hash, [&](std::int32_t id) { return shape(id).key == canon.key; });
  if (found) return *found;
  const int id = static_cast<int>(shapes_.size());
  by_canonical_hash_.InsertUnique(canon.hash, id);
  shapes_.push_back(Slot{static_cast<std::uint32_t>(shape_arena_.size()),
                         static_cast<std::uint32_t>(canon.key.size()),
                         canon.hash});
  shape_arena_ += canon.key;
  return id;
}

bool ConfigInterner::RestoreShapes(std::span<const std::string_view> keys) {
  if (!shapes_.empty()) return false;
  std::size_t arena = 0;
  for (std::string_view key : keys) arena += key.size();
  shape_arena_.reserve(arena);
  shapes_.reserve(keys.size());
  by_canonical_hash_.Reserve(keys.size());
  for (std::string_view key : keys) {
    const int expected = static_cast<int>(shapes_.size());
    if (InternCanonical(ShapeKey{key, HashRange(key.begin(), key.end())}) !=
        expected) {
      return false;
    }
  }
  return true;
}

void ConfigInterner::Freeze() {
  by_canonical_hash_ = {};
  by_raw_hash_ = {};
  std::string().swap(raw_arena_);
  std::string().swap(raw_scratch_);
  proj_scratch_ = ProjectionScratch();
  std::vector<Elem>().swap(sub_marks_scratch_);
  shape_arena_.shrink_to_fit();
  shapes_.shrink_to_fit();
}

template <typename Canonicalize>
int ConfigInterner::InternRawScratch(Canonicalize&& canonicalize) {
  const std::size_t raw_hash =
      HashRange(raw_scratch_.begin(), raw_scratch_.end());
  const RawEntry* found = by_raw_hash_.Find(raw_hash, [&](const RawEntry& e) {
    return e.length == raw_scratch_.size() &&
           std::memcmp(raw_arena_.data() + e.offset, raw_scratch_.data(),
                       e.length) == 0;
  });
  if (found) {
    ++raw_hits_;
    return found->id;
  }
  const CanonicalForm canon = canonicalize();
  const int id = InternCanonical(ShapeKey{canon.key, canon.hash});
  const std::uint32_t offset = static_cast<std::uint32_t>(raw_arena_.size());
  raw_arena_ += raw_scratch_;
  by_raw_hash_.InsertUnique(
      raw_hash,
      RawEntry{offset, static_cast<std::uint32_t>(raw_scratch_.size()), id});
  return id;
}

int ConfigInterner::Intern(const Structure& s, std::span<const Elem> marks) {
  // Raw (non-canonical) fingerprint of the marked structure. Marks are
  // encoded as self-delimiting varints so identical fingerprints are
  // identical marked structures (same content bytes, same mark tuple) —
  // the memo is exact, not heuristic, however large the element ids grow.
  raw_scratch_.clear();
  for (Elem m : marks) AppendFullWidth(raw_scratch_, m);
  raw_scratch_.push_back('\x02');
  raw_scratch_ += s.EncodeContent();
  return InternRawScratch([&] { return Canonicalize(s, marks); });
}

int ConfigInterner::InternProjection(const Structure& joint,
                                     std::span<const Elem> marks) {
  // Build the projected member's raw key straight off the joint structure:
  // the closure and the dense renaming come from reusable scratch, and the
  // content bytes are encoded without materializing the substructure, so a
  // memo hit costs no allocation at all. Only a miss restricts for real.
  ComputeGeneratedSubset(joint, marks, proj_scratch_);
  raw_scratch_.clear();
  for (Elem m : marks) {
    AppendFullWidth(raw_scratch_, proj_scratch_.old_to_new[m]);
  }
  raw_scratch_.push_back('\x02');
  AppendRenamedContent(joint, proj_scratch_.subset, proj_scratch_.old_to_new,
                       proj_scratch_.args, raw_scratch_);
  return InternRawScratch([&] {
    SubstructureResult sub = Restrict(joint, proj_scratch_.subset);
    sub_marks_scratch_.resize(marks.size());
    for (std::size_t i = 0; i < marks.size(); ++i) {
      sub_marks_scratch_[i] = sub.old_to_new[marks[i]];
    }
    return Canonicalize(sub.structure, sub_marks_scratch_);
  });
}

}  // namespace amalgam
