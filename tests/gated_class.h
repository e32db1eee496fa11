// A test class that fixes the schedule of concurrent queries over one
// graph key. Only the query holding the key's build claim streams the
// class, so the first stream is the claim holder's; GatedClass holds that
// stream until the cache it is queried through has counted `waiters` waits
// on build claims (GraphCache counts a wait before it blocks, under its
// lock), and then lets it run — or, with `throw_first`, fails it with an
// EnumerationCapError. Every later stream runs at once. So a test that
// submits N identical queries sees one leader and exactly N−1 waiters,
// without sleeps.
#ifndef AMALGAM_TESTS_GATED_CLASS_H_
#define AMALGAM_TESTS_GATED_CLASS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "fraisse/fraisse_class.h"
#include "solver/cache.h"

namespace amalgam {

class GatedClass : public FraisseClass {
 public:
  GatedClass(std::shared_ptr<const FraisseClass> inner,
             const GraphCache& cache, std::uint64_t waiters,
             bool throw_first = false)
      : inner_(std::move(inner)),
        cache_(cache),
        waiters_(waiters),
        throw_first_(throw_first) {}

  const SchemaRef& schema() const override { return inner_->schema(); }
  std::string Fingerprint() const override { return inner_->Fingerprint(); }
  bool Contains(const Structure& s) const override {
    return inner_->Contains(s);
  }
  std::uint64_t Blowup(int n) const override { return inner_->Blowup(n); }
  std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const override {
    return inner_->Amalgamate(a, b, b_to_a);
  }

  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const PositionCallback& cb,
                              const EnumControl& ctl = {}) const override {
    if (!opened_.exchange(true)) {
      // A generous deadline turns a schedule that never arrives into a
      // failed count assertion instead of a hung test.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (cache_.coalesced_joins() + cache_.resume_coalesced() <
                 waiters_ &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (throw_first_) throw EnumerationCapError(0, 0);
    }
    inner_->EnumerateGeneratedFrom(m, start, cb, ctl);
  }

 private:
  const std::shared_ptr<const FraisseClass> inner_;
  const GraphCache& cache_;
  const std::uint64_t waiters_;
  const bool throw_first_;
  mutable std::atomic<bool> opened_{false};
};

}  // namespace amalgam

#endif  // AMALGAM_TESTS_GATED_CLASS_H_
