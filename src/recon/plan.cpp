#include "recon/plan.hpp"

#include <algorithm>
#include <cassert>
#include <set>

namespace sma::recon {

namespace {

int max_per_disk(const layout::Architecture& arch,
                 const std::vector<const std::vector<ElementRead>*>& lists) {
  std::vector<int> per_disk(static_cast<std::size_t>(arch.total_disks()), 0);
  for (const auto* list : lists)
    for (const auto& read : *list)
      ++per_disk[static_cast<std::size_t>(read.logical_disk)];
  return *std::max_element(per_disk.begin(), per_disk.end());
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

Result<StripePlan> plan_mirror(const layout::Architecture& arch,
                               const std::vector<int>& failed) {
  const int n = arch.n();
  std::set<ElementRead> availability;
  std::set<ElementRead> parity_extra;
  bool parity_failed = false;
  for (const int disk : failed)
    if (arch.role_of(disk) == layout::DiskRole::kParity) parity_failed = true;
  // Reads charged per disk so far (copy selection at R >= 2).
  std::vector<int> load(static_cast<std::size_t>(arch.total_disks()), 0);

  // One read source per lost element, failed disks in the given order:
  // a surviving copy already read (shared, free), else the least-loaded
  // surviving copy (data copy first on ties, then replica arrays in
  // order). At R = 1 every lost element has at most one surviving copy,
  // so the choice is forced.
  for (const int disk : failed) {
    const layout::DiskRole role = arch.role_of(disk);
    if (role == layout::DiskRole::kParity) continue;
    for (int j = 0; j < arch.rows(); ++j) {
      const layout::Pos src =
          role == layout::DiskRole::kData
              ? layout::Pos{arch.role_index(disk), j}
              : arch.replicated_by(arch.role_index(disk), j);
      ElementRead best{-1, 0};
      for (int r = 0; r <= arch.replicas(); ++r) {
        const layout::Pos copy = r == 0
                                     ? layout::Pos{arch.data_disk(src.disk),
                                                   src.row}
                                     : arch.replica_of(src.disk, src.row, r);
        if (contains(failed, copy.disk)) continue;
        const ElementRead read{copy.disk, copy.row};
        if (availability.count(read)) {
          best = read;
          break;
        }
        if (best.logical_disk < 0 ||
            load[static_cast<std::size_t>(copy.disk)] <
                load[static_cast<std::size_t>(best.logical_disk)])
          best = read;
      }
      if (best.logical_disk >= 0) {
        if (availability.insert(best).second)
          ++load[static_cast<std::size_t>(best.logical_disk)];
        continue;
      }
      // Every copy lost (R = 1 F3 overlap element): recover via the
      // parity row — read the other data elements of the row plus c_row.
      if (!arch.has_parity() || parity_failed)
        return unrecoverable("element lost every copy without usable parity");
      for (int i = 0; i < n; ++i) {
        if (i == src.disk) continue;
        assert(!contains(failed, arch.data_disk(i)) &&
               "double data failure cannot also lose a replica");
        availability.insert({arch.data_disk(i), src.row});
      }
      availability.insert({arch.parity_disk(), src.row});
    }
  }

  // A lost parity disk is recomputed from the full data array; only the
  // reads not already issued for availability are extra.
  if (parity_failed) {
    for (int i = 0; i < n; ++i) {
      if (contains(failed, arch.data_disk(i))) continue;
      for (int j = 0; j < arch.rows(); ++j) {
        const ElementRead read{arch.data_disk(i), j};
        if (!availability.count(read)) parity_extra.insert(read);
      }
    }
  }

  StripePlan plan;
  plan.availability_reads.assign(availability.begin(), availability.end());
  plan.parity_rebuild_reads.assign(parity_extra.begin(), parity_extra.end());
  return plan;
}

Result<StripePlan> plan_raid(const layout::Architecture& arch,
                             const std::vector<int>& failed) {
  // RAID-5/6 decode reads every intact column (the paper's Section II
  // observation, made slightly worse by shortening). A failure that
  // loses no data column needs no availability reads, but recomputing
  // the lost parity still reads all data columns.
  bool data_lost = false;
  for (const int disk : failed)
    if (arch.role_of(disk) == layout::DiskRole::kData) data_lost = true;

  StripePlan plan;
  for (int disk = 0; disk < arch.total_disks(); ++disk) {
    if (contains(failed, disk)) continue;
    for (int j = 0; j < arch.rows(); ++j) {
      if (data_lost)
        plan.availability_reads.push_back({disk, j});
      else if (arch.role_of(disk) == layout::DiskRole::kData)
        plan.parity_rebuild_reads.push_back({disk, j});
    }
  }
  return plan;
}

}  // namespace

int StripePlan::read_accesses(const layout::Architecture& arch) const {
  return max_per_disk(arch, {&availability_reads});
}

int StripePlan::total_read_accesses(const layout::Architecture& arch) const {
  return max_per_disk(arch, {&availability_reads, &parity_rebuild_reads});
}

Result<StripePlan> plan_reconstruction(const layout::Architecture& arch,
                                       const std::vector<int>& failed) {
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (failed[i] < 0 || failed[i] >= arch.total_disks())
      return invalid_argument("failed disk index out of range");
    for (std::size_t j = i + 1; j < failed.size(); ++j)
      if (failed[i] == failed[j])
        return invalid_argument("duplicate failed disk index");
  }
  if (static_cast<int>(failed.size()) > arch.fault_tolerance())
    return unrecoverable(arch.name() + " cannot survive " +
                         std::to_string(failed.size()) + " failures");
  if (failed.empty()) return StripePlan{};
  if (arch.is_mirror()) return plan_mirror(arch, failed);
  return plan_raid(arch, failed);
}

}  // namespace sma::recon
