// Stripe-level RAID architectures assembled from arrangements + codecs.
//
// An Architecture fixes the disk population of one stripe (global disk
// indices), the per-disk row count, and — for mirror organizations —
// the element arrangement of each replica array. The reconstruction
// planner (src/recon) consumes this description to derive read plans.
//
// Mirror organizations carry R >= 1 replica arrays. R = 1 is the
// paper's mirror method; R = 2 is the three-mirror method (GFS, Ceph)
// the paper names as future work. Replica array r of an R >= 2 mirror
// uses the affine arrangement (i + c_r*j) mod n with distinct
// multipliers c_r coprime to n (c_1 = 1, the paper's shifted
// arrangement), or the identity in every array for the traditional
// baseline. Orthogonal multipliers make R replica arrays tolerate any R
// disk failures while rebuild reads stay spread one per disk.
//
// Global disk numbering:
//   mirror:                [0, n) data, replica array r at [r*n, (r+1)*n),
//                          {(R+1)*n} parity (if any; R = 1 only)
//   raid5:                 [0, n) data, {n} parity
//   raid6 (shortened):     [0, n) data, {n, n+1} parity (P, Q)
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "layout/arrangement.hpp"

namespace sma::layout {

/// The disk organization. Parity and the element arrangement are
/// carried by has_parity() and layout_spec(), not by the kind.
enum class ArchKind { kMirror, kRaid5, kRaid6 };

enum class DiskRole { kData, kMirror, kParity };

class Architecture {
 public:
  /// RAID-1 style: n data disks + n mirror disks, n rows per stripe.
  static Architecture mirror(int n, bool shifted);

  /// Fault-tolerance-2 variant: adds one parity disk with
  /// c_j = XOR_i a(i, j) (paper Section V).
  static Architecture mirror_with_parity(int n, bool shifted);

  /// Mirror built from a layout-registry spec ("shifted", "lrc:groups=2",
  /// "iterated:3", ...) with `replicas` replica arrays. Resolves through
  /// AlgorithmRegistry::global(); param-less traditional/shifted specs
  /// build the classic arrangements (so names and downstream results
  /// stay bit-identical) and generalize to any R via the affine family.
  /// Other layouts have no orthogonal-multiplier generalization and are
  /// accepted at R = 1 only. Shifted R >= 2 needs R units mod n
  /// (phi(n) >= R).
  static Result<Architecture> mirror_named(int n, const std::string& layout,
                                           int replicas = 1);

  /// Parity-protected variant of mirror_named (R = 1). Refuses layouts
  /// whose descriptor clears supports_second_failure.
  static Result<Architecture> mirror_with_parity_named(
      int n, const std::string& layout);

  /// Comparators from the paper's background section.
  static Architecture raid5(int n);
  /// RAID-6 via a shortened prime code (rows = p-1, p = smallest prime
  /// >= n+1), matching the paper's Fig. 7 "shorten"-method comparator.
  static Architecture raid6(int n);

  ArchKind kind() const { return kind_; }
  int n() const { return n_; }
  int rows() const { return rows_; }
  int total_disks() const { return total_disks_; }
  /// Replica arrays R (0 for RAID-5/6).
  int replicas() const { return static_cast<int>(arrangements_.size()); }
  int fault_tolerance() const;
  double storage_efficiency() const;
  std::string name() const;

  bool is_mirror() const { return kind_ == ArchKind::kMirror; }
  bool is_shifted() const { return layout_spec_ == "shifted"; }
  bool has_parity() const { return kind_ != ArchKind::kMirror || parity_; }
  int parity_disks() const;

  /// Registry spec that (re)builds this architecture's arrangement —
  /// "traditional"/"shifted" for the classic layouts, the originating
  /// spec for custom ones. Empty for RAID-5/6.
  const std::string& layout_spec() const { return layout_spec_; }

  /// Arrangement of replica array r (1-based); nullptr for RAID-5/6.
  const MirrorArrangement* arrangement(int r = 1) const {
    if (arrangements_.empty()) return nullptr;
    assert(r >= 1 && r <= replicas());
    return arrangements_[static_cast<std::size_t>(r) - 1].get();
  }

  // --- global disk index helpers -------------------------------------
  int data_disk(int i) const;
  /// Disk i of replica array r (1-based).
  int mirror_disk(int i, int r = 1) const;
  int parity_disk(int which = 0) const;
  DiskRole role_of(int disk) const;
  /// Index within its role: data i, parity ordinal, or for mirror disks
  /// (r-1)*n + i — disk i of replica array r.
  int role_index(int disk) const;

  /// Global position of the copy of data element a(i, j) in replica
  /// array r (1-based); mirror kinds only.
  Pos replica_of(int data_disk_index, int row, int r = 1) const;
  /// Which data element the mirror cell (mirror index, row) replicates,
  /// the mirror index being role_index() of the mirror disk; mirror
  /// kinds only. Returned Pos.disk is the *data disk index*.
  Pos replicated_by(int mirror_index, int row) const;

 private:
  Architecture() = default;
  static Architecture make_mirror(
      int n, std::string spec,
      std::vector<std::shared_ptr<const MirrorArrangement>> arrays);

  ArchKind kind_ = ArchKind::kMirror;
  bool parity_ = false;
  int n_ = 0;
  int rows_ = 0;
  int total_disks_ = 0;
  std::string layout_spec_;
  /// One arrangement per replica array (empty for RAID-5/6).
  std::vector<std::shared_ptr<const MirrorArrangement>> arrangements_;
};

}  // namespace sma::layout
