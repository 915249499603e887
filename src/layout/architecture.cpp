#include "layout/architecture.hpp"

#include <cassert>
#include <numeric>
#include <utility>

#include "ec/prime.hpp"
#include "layout/registry.hpp"

namespace sma::layout {

Architecture Architecture::make_mirror(
    int n, std::string spec,
    std::vector<std::shared_ptr<const MirrorArrangement>> arrays) {
  Architecture a;
  a.kind_ = ArchKind::kMirror;
  a.n_ = n;
  a.rows_ = n;
  a.total_disks_ = (static_cast<int>(arrays.size()) + 1) * n;
  a.layout_spec_ = std::move(spec);
  a.arrangements_ = std::move(arrays);
  return a;
}

Architecture Architecture::mirror(int n, bool shifted) {
  assert(n >= 1);
  std::shared_ptr<const MirrorArrangement> arr;
  if (shifted)
    arr = std::make_shared<ShiftedArrangement>(n);
  else
    arr = std::make_shared<TraditionalArrangement>(n);
  return make_mirror(n, shifted ? "shifted" : "traditional", {std::move(arr)});
}

Architecture Architecture::mirror_with_parity(int n, bool shifted) {
  Architecture a = mirror(n, shifted);
  a.parity_ = true;
  a.total_disks_ += 1;
  return a;
}

Result<Architecture> Architecture::mirror_named(int n,
                                                const std::string& layout,
                                                int replicas) {
  if (n < 1) return invalid_argument("mirror architecture needs n >= 1");
  if (replicas < 1)
    return invalid_argument("mirror architecture needs at least one replica "
                            "array");
  const auto& registry = AlgorithmRegistry::global();
  auto spec = parse_layout_spec(layout);
  if (!spec.is_ok()) return spec.status();
  auto canonical = registry.canonical(spec.value().name);
  if (!canonical.is_ok()) return canonical.status();
  const bool classic = spec.value().params.empty() &&
                       (canonical.value() == "traditional" ||
                        canonical.value() == "shifted");
  if (classic && replicas == 1)
    return mirror(n, canonical.value() == "shifted");
  std::vector<std::shared_ptr<const MirrorArrangement>> arrays;
  if (classic) {
    // Replica array r: identity (traditional) or the affine arrangement
    // with the r-th smallest unit mod n as its multiplier (shifted).
    const bool shifted = canonical.value() == "shifted";
    for (int c = 1; static_cast<int>(arrays.size()) < replicas; ++c) {
      if (!shifted) {
        arrays.push_back(std::make_shared<TraditionalArrangement>(n));
      } else if (n == 1) {
        arrays.push_back(std::make_shared<ShiftedArrangement>(n));
      } else if (c >= n) {
        return invalid_argument(
            "n = " + std::to_string(n) + " has only " +
            std::to_string(arrays.size()) + " units; cannot build " +
            std::to_string(replicas) + " orthogonal shifted replica arrays");
      } else if (std::gcd(c, n) == 1) {
        arrays.push_back(std::make_shared<ShiftedArrangement>(n, c));
      }
    }
    return make_mirror(n, canonical.value(), std::move(arrays));
  }
  if (replicas != 1)
    return invalid_argument("layout '" + layout +
                            "' has no orthogonal-multiplier generalization; "
                            "R >= 2 mirrors support only traditional/shifted");
  auto arr = registry.make(spec.value(), n);
  if (!arr.is_ok()) return arr.status();
  arrays.push_back(
      std::shared_ptr<const MirrorArrangement>(std::move(arr).take()));
  return make_mirror(n, layout, std::move(arrays));
}

Result<Architecture> Architecture::mirror_with_parity_named(
    int n, const std::string& layout) {
  auto base = mirror_named(n, layout);
  if (!base.is_ok()) return base.status();
  Architecture a = std::move(base).take();
  const auto* reg = dynamic_cast<const RegistryArrangement*>(a.arrangement());
  if (reg != nullptr && !reg->descriptor().supports_second_failure)
    return failed_precondition("layout '" + reg->name() +
                               "' does not support the second-failure "
                               "(mirror + parity) machinery");
  a.parity_ = true;
  a.total_disks_ += 1;
  return a;
}

Architecture Architecture::raid5(int n) {
  assert(n >= 1);
  Architecture a;
  a.kind_ = ArchKind::kRaid5;
  a.n_ = n;
  a.rows_ = n;  // same stripe depth convention as the mirror methods
  a.total_disks_ = n + 1;
  return a;
}

Architecture Architecture::raid6(int n) {
  assert(n >= 1);
  Architecture a;
  a.kind_ = ArchKind::kRaid6;
  a.n_ = n;
  // Shortened prime code (EVENODD/RDP style): stripe depth p-1 with the
  // smallest prime p >= n+1. This is what makes the paper's Fig. 7
  // RAID-6 throughput "a little lower" than the traditional mirror
  // method with parity.
  a.rows_ = ec::next_prime_at_least(std::max(3, n + 1)) - 1;
  a.total_disks_ = n + 2;
  return a;
}

int Architecture::fault_tolerance() const {
  switch (kind_) {
    case ArchKind::kMirror: return replicas() + (parity_ ? 1 : 0);
    case ArchKind::kRaid5: return 1;
    case ArchKind::kRaid6: return 2;
  }
  return 0;
}

double Architecture::storage_efficiency() const {
  const double data_disks = n_;
  return data_disks / total_disks_;
}

int Architecture::parity_disks() const {
  switch (kind_) {
    case ArchKind::kMirror: return parity_ ? 1 : 0;
    case ArchKind::kRaid5: return 1;
    case ArchKind::kRaid6: return 2;
  }
  return 0;
}

std::string Architecture::name() const {
  switch (kind_) {
    case ArchKind::kMirror: {
      std::string name = std::string(parity_ ? "mirror-parity-" : "mirror-") +
                         arrangement()->name();
      if (replicas() > 1) name += "-x" + std::to_string(replicas() + 1);
      return name;
    }
    case ArchKind::kRaid5: return "raid5";
    case ArchKind::kRaid6: return "raid6-shortened";
  }
  return "unknown";
}

int Architecture::data_disk(int i) const {
  assert(i >= 0 && i < n_);
  return i;
}

int Architecture::mirror_disk(int i, int r) const {
  assert(is_mirror());
  assert(i >= 0 && i < n_);
  assert(r >= 1 && r <= replicas());
  return r * n_ + i;
}

int Architecture::parity_disk(int which) const {
  assert(has_parity());
  assert(which >= 0 && which < parity_disks());
  if (is_mirror()) return (replicas() + 1) * n_ + which;
  return n_ + which;
}

DiskRole Architecture::role_of(int disk) const {
  assert(disk >= 0 && disk < total_disks_);
  if (disk < n_) return DiskRole::kData;
  if (is_mirror() && disk < (replicas() + 1) * n_) return DiskRole::kMirror;
  return DiskRole::kParity;
}

int Architecture::role_index(int disk) const {
  switch (role_of(disk)) {
    case DiskRole::kData: return disk;
    case DiskRole::kMirror: return disk - n_;
    case DiskRole::kParity:
      return disk - (is_mirror() ? (replicas() + 1) * n_ : n_);
  }
  return -1;
}

Pos Architecture::replica_of(int data_disk_index, int row, int r) const {
  assert(is_mirror());
  const Pos local = arrangement(r)->mirror_of(data_disk_index, row);
  return {mirror_disk(local.disk, r), local.row};
}

Pos Architecture::replicated_by(int mirror_index, int row) const {
  assert(is_mirror());
  return arrangement(mirror_index / n_ + 1)->data_of(mirror_index % n_, row);
}

}  // namespace sma::layout
