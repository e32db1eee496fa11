#include "solver/member_table.h"

#include <algorithm>
#include <cstring>

namespace amalgam {

namespace {

// Reads the marks StoreRecord wrote at `in`.
void ReadMarks(const std::uint8_t* in, std::vector<Elem>& marks) {
  for (Elem& m : marks) {
    m = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t byte = *in++;
      m |= static_cast<Elem>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
  }
}

}  // namespace

MemberTable::MemberTable(SchemaRef schema, int k)
    : k_(k), schema_(schema), unpacked_(std::move(schema), 0) {
  bytes_.store(sizeof(MemberTable), std::memory_order_relaxed);
}

MemberTable::~MemberTable() = default;

MemberTable::Reach MemberTable::Claim(int stream, std::uint64_t position) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const std::uint64_t n = sizes_[stream].load(std::memory_order_relaxed);
    if (position < n) return Reach::kRead;
    if (exhausted_[stream]) return Reach::kEnd;
    if (position > n || n >= kMemberCap) return Reach::kStream;
    if (!extending_[stream]) {
      extending_[stream] = true;
      return Reach::kExtend;
    }
    ++waiters_;
    extended_.wait(lock);
    --waiters_;
  }
}

void MemberTable::EndExtend(int stream, bool exhausted) {
  std::lock_guard<std::mutex> lock(mutex_);
  extending_[stream] = false;
  exhausted_[stream] = exhausted;
  if (waiters_ > 0) extended_.notify_all();
}

void MemberTable::AccountShapes() {
  std::size_t added = 0;
  for (; accounted_shapes_ < interner_.size(); ++accounted_shapes_) {
    added += ConfigInterner::kBytesPerShape +
             interner_.shape(accounted_shapes_).key.size();
  }
  if (added > 0) bytes_.fetch_add(added, std::memory_order_relaxed);
}

const char* MemberTable::StoreRecord(const Structure& d,
                                     std::span<const Elem> marks) {
  const std::size_t bound = d.PackedBound() + 5 * marks.size();
  if (block_used_ + bound > block_size_) {
    // Blocks double from a page up, so a table over a few members stays
    // small.
    block_size_ = std::max(std::min(2 * block_size_, kMaxBlockBytes),
                           std::max(kMinBlockBytes, bound));
    blocks_.emplace_back(new char[block_size_]);
    bytes_.fetch_add(block_size_, std::memory_order_relaxed);
    block_used_ = 0;
  }
  char* record = blocks_.back().get() + block_used_;
  char* out = d.WritePacked(record);
  for (Elem m : marks) out = WriteFullWidth(out, m);
  block_used_ = out - blocks_.back().get();
  return record;
}

bool MemberTable::Append(int stream, const Structure& d,
                         std::span<const Elem> marks) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t i = sizes_[stream].load(std::memory_order_relaxed);
  if (i >= kMemberCap) return false;
  std::unique_ptr<Chunk>& chunk = chunks_[stream][i / kChunk];
  if (chunk == nullptr) {
    chunk = std::make_unique<Chunk>();
    bytes_.fetch_add(sizeof(Chunk), std::memory_order_relaxed);
  }
  chunk->record[i % kChunk] = StoreRecord(d, marks);
  if (stream == kJoint) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    for (AtomColumn& column : columns_) {
      if (column.atom.Holds(d, marks)) {
        column.words[i / 64].fetch_or(bit, std::memory_order_relaxed);
      }
    }
  }
  sizes_[stream].store(i + 1, std::memory_order_release);
  if (waiters_ > 0) extended_.notify_all();
  return true;
}

int MemberTable::InitialShape(std::uint64_t i) {
  std::atomic<std::uint64_t>& slot = shape_slot(kInitial, i);
  std::uint64_t packed = slot.load(std::memory_order_acquire);
  if (packed == 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    packed = slot.load(std::memory_order_relaxed);
    if (packed == 0) {
      Unpack(kInitial, i, unpacked_, unpacked_marks_);
      packed = static_cast<std::uint64_t>(
                   interner_.InternProjection(unpacked_, unpacked_marks_)) +
               1;
      AccountShapes();
      slot.store(packed, std::memory_order_release);
    }
  }
  return static_cast<int>(packed - 1);
}

std::pair<int, int> MemberTable::JointShapes(std::uint64_t i,
                                             const Structure* d,
                                             std::span<const Elem> marks) {
  std::atomic<std::uint64_t>& slot = shape_slot(kJoint, i);
  std::uint64_t packed = slot.load(std::memory_order_acquire);
  if (packed == 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    packed = slot.load(std::memory_order_relaxed);
    if (packed == 0) {
      if (d == nullptr) {
        Unpack(kJoint, i, unpacked_, unpacked_marks_);
        d = &unpacked_;
        marks = unpacked_marks_;
      }
      // Old before new: the order a streamed sweep interns them in.
      const int old_shape = interner_.InternProjection(*d, marks.first(k_));
      const int new_shape =
          interner_.InternProjection(*d, marks.subspan(k_, k_));
      AccountShapes();
      packed = (static_cast<std::uint64_t>(old_shape + 1) << 32) |
               static_cast<std::uint32_t>(new_shape + 1);
      slot.store(packed, std::memory_order_release);
    }
  }
  return {static_cast<int>(packed >> 32) - 1,
          static_cast<int>(packed & 0xffffffffu) - 1};
}

int MemberTable::MapShape(int id, ConfigInterner& into) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return into.InternCanonical(interner_.shape(id));
}

std::vector<MemberTable::Column> MemberTable::Columns(
    std::span<const GuardAtom> atoms) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Column> out;
  out.reserve(atoms.size());
  const std::size_t existing = columns_.size();
  for (const GuardAtom& atom : atoms) {
    auto it = std::find_if(columns_.begin(), columns_.end(),
                           [&](const AtomColumn& c) { return c.atom == atom; });
    if (it == columns_.end()) {
      columns_.push_back(AtomColumn{
          atom, std::make_unique<std::atomic<std::uint64_t>[]>(kColumnWords)});
      bytes_.fetch_add(kColumnWords * sizeof(std::uint64_t),
                       std::memory_order_relaxed);
      it = columns_.end() - 1;
    }
    out.push_back(it->words.get());
  }
  // The new columns over the prefix: one unpack per member for all of them.
  if (columns_.size() > existing) {
    const std::uint64_t n = sizes_[kJoint].load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < n; ++i) {
      Unpack(kJoint, i, unpacked_, unpacked_marks_);
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      for (std::size_t c = existing; c < columns_.size(); ++c) {
        if (columns_[c].atom.Holds(unpacked_, unpacked_marks_)) {
          columns_[c].words[i / 64].fetch_or(bit, std::memory_order_relaxed);
        }
      }
    }
  }
  return out;
}

void MemberTable::Unpack(int stream, std::uint64_t i, Structure& d,
                         std::vector<Elem>& marks) const {
  const char* data = record(stream, i);
  marks.resize(static_cast<std::size_t>(stream == kJoint ? 2 * k_ : k_));
  ReadMarks(reinterpret_cast<const std::uint8_t*>(data + d.AssignPacked(data)),
            marks);
}

}  // namespace amalgam
