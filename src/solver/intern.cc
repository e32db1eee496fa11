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
  scratch_ = ProjectionScratch();
  shape_arena_.shrink_to_fit();
  shapes_.shrink_to_fit();
}

int ConfigInterner::InternProjection(const Structure& joint,
                                     std::span<const Elem> marks) {
  // The raw key is the projected member's marks and content bytes, encoded
  // straight off the joint structure (the closure and the dense renaming
  // come from reusable scratch). Marks are self-delimiting varints, so equal
  // raw keys are identical marked projections: the memo is exact, however
  // large the element ids grow.
  ComputeGeneratedSubset(joint, marks, scratch_);
  raw_scratch_.clear();
  for (Elem m : marks) AppendFullWidth(raw_scratch_, scratch_.old_to_new[m]);
  raw_scratch_.push_back('\x02');
  AppendRenamedContent(joint, scratch_.subset, scratch_.old_to_new,
                       scratch_.args, raw_scratch_);
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
  // A miss canonicalizes the projection where it sits, in the same scratch.
  CanonicalizeSubset(joint, marks, scratch_);
  const int id = InternCanonical(ShapeKey{scratch_.key, scratch_.hash});
  const std::uint32_t offset = static_cast<std::uint32_t>(raw_arena_.size());
  raw_arena_ += raw_scratch_;
  by_raw_hash_.InsertUnique(
      raw_hash,
      RawEntry{offset, static_cast<std::uint32_t>(raw_scratch_.size()), id});
  return id;
}

}  // namespace amalgam
