#include "solver/member_table.h"

namespace amalgam {

namespace {

// Walks `backend`'s whole m-generated stream; returns false, having
// stopped, once it runs past MemberTable::kMemberCap members or the
// backend throws EnumerationCapError.
template <typename Visit>
bool WalkStream(const SolverBackend& backend, int m, std::uint64_t* generated,
                Visit&& visit) {
  std::uint64_t count = 0;
  try {
    backend.EnumerateGeneratedFrom(
        m, 0,
        [&](const Structure& d, std::span<const Elem> marks, std::uint64_t) {
          if (++count > MemberTable::kMemberCap) return false;
          visit(d, marks);
          return true;
        },
        EnumControl{generated, 0});
  } catch (const EnumerationCapError&) {
    return false;
  }
  return count <= MemberTable::kMemberCap;
}

std::size_t ApproxBytes(const CanonicalForm& form) {
  std::size_t bytes = sizeof(CanonicalForm) + form.key.capacity() +
                      (form.marks.capacity() + form.perm.capacity()) *
                          sizeof(Elem);
  // The structure's dense tables: one byte per relation entry, one Elem
  // per function entry, each in its own vector.
  const Schema& schema = form.structure.schema();
  for (int r = 0; r < schema.num_relations(); ++r) {
    std::size_t entries = 1;
    for (int i = 0; i < schema.relation(r).arity; ++i) {
      entries *= form.structure.size();
    }
    bytes += sizeof(std::vector<std::uint8_t>) + entries;
  }
  for (int f = 0; f < schema.num_functions(); ++f) {
    std::size_t entries = 1;
    for (int i = 0; i < schema.function(f).arity; ++i) {
      entries *= form.structure.size();
    }
    bytes += sizeof(std::vector<Elem>) + entries * sizeof(Elem);
  }
  return bytes;
}

}  // namespace

std::shared_ptr<const MemberTable> MemberTable::Build(
    const SolverBackend& backend, int k, std::uint64_t* generated) {
  std::shared_ptr<MemberTable> table(new MemberTable());
  table->k_ = k;
  table->schema_ = backend.schema();
  ConfigInterner& interner = table->interner_;

  const bool whole =
      WalkStream(backend, k, generated,
                 [&](const Structure& d, std::span<const Elem> marks) {
                   table->initial_shapes_.push_back(interner.Intern(d, marks));
                 }) &&
      WalkStream(
          backend, 2 * k, generated,
          [&](const Structure& d, std::span<const Elem> marks) {
            // Old before new: the order a streamed sweep interns them in.
            table->projections_.push_back(
                interner.InternProjection(d, marks.first(k)));
            table->projections_.push_back(
                interner.InternProjection(d, marks.subspan(k)));
            table->joint_offsets_.push_back(
                static_cast<std::uint32_t>(table->arena_.size()));
            d.AppendPacked(table->arena_);
            for (Elem m : marks) AppendFullWidth(table->arena_, m);
          });
  if (!whole) return nullptr;

  // Interning is over: the raw-key memo only served the build.
  interner.ReleaseRawMemo();
  table->arena_.shrink_to_fit();
  table->joint_offsets_.shrink_to_fit();
  table->projections_.shrink_to_fit();
  table->initial_shapes_.shrink_to_fit();
  std::size_t bytes = sizeof(MemberTable) + table->arena_.capacity() +
                      table->joint_offsets_.capacity() * sizeof(std::uint32_t) +
                      (table->projections_.capacity() +
                       table->initial_shapes_.capacity()) *
                          sizeof(std::int32_t);
  for (int id = 0; id < interner.size(); ++id) {
    bytes += ApproxBytes(interner.shape(id));
  }
  table->bytes_ = bytes;
  return table;
}

void MemberTable::UnpackJoint(std::uint64_t i, Structure& joint,
                              std::vector<Elem>& marks) const {
  const char* data = arena_.data() + joint_offsets_[i];
  const auto* in = reinterpret_cast<const std::uint8_t*>(
      data + joint.AssignPacked(data));
  marks.resize(2 * static_cast<std::size_t>(k_));
  for (Elem& m : marks) {
    m = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t byte = *in++;
      m |= static_cast<Elem>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
  }
}

}  // namespace amalgam
