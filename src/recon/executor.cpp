#include "recon/executor.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "gf/region.hpp"
#include "recon/plan.hpp"
#include "util/units.hpp"

namespace sma::recon {

namespace {

using Buffer = std::vector<std::uint8_t>;
using ElemPos = std::pair<int, int>;  // (logical disk, row)

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Fault-path tallies accumulated across all stripes of one rebuild.
struct FaultCounts {
  std::uint64_t latent_sectors_hit = 0;
  std::uint64_t fallback_to_mirror = 0;
  std::uint64_t fallback_to_parity = 0;
  std::uint64_t fallback_to_codec = 0;
  std::uint64_t unrecoverable_elements = 0;
};

/// Per-stripe recovery state: staged contents for each failed logical
/// disk, which of those elements actually got recovered, and the exact
/// element reads recovery consumed (for fault-aware timing).
struct StripeRecovery {
  std::map<int, std::vector<Buffer>> staged;
  std::map<int, std::vector<char>> staged_ok;
  std::set<ElemPos> availability_reads;
  std::set<ElemPos> parity_rebuild_reads;
  std::vector<ElemPos> unrecoverable;
};

/// Recover the contents of every failed logical disk of one mirror
/// stripe into `rec.staged[logical][row]`, reading each lost element
/// from the copy `plan` chose and falling back across redundancy paths
/// (other copies <-> parity-XOR) only when that source is unreadable.
/// Elements with no surviving path are zero-filled and listed in
/// rec.unrecoverable rather than failing the stripe.
Status recover_mirror_stripe(const array::DiskArray& arr, int stripe,
                             const std::vector<int>& failed,
                             const StripePlan& plan, StripeRecovery& rec,
                             FaultCounts& fc) {
  const auto& arch = arr.arch();
  const std::size_t eb = arr.config().content_bytes;
  const int n = arch.n();
  const int rows = arch.rows();

  std::vector<int> failed_data;
  std::vector<int> failed_mirror;
  bool parity_failed = false;
  for (const int disk : failed) {
    switch (arch.role_of(disk)) {
      case layout::DiskRole::kData: failed_data.push_back(disk); break;
      case layout::DiskRole::kMirror: failed_mirror.push_back(disk); break;
      case layout::DiskRole::kParity: parity_failed = true; break;
    }
  }
  for (const int disk : failed) {
    rec.staged.emplace(disk, std::vector<Buffer>(
                                 static_cast<std::size_t>(rows), Buffer(eb)));
    rec.staged_ok.emplace(
        disk, std::vector<char>(static_cast<std::size_t>(rows), 0));
  }

  auto mark_unrecoverable = [&](int disk, int j, Buffer& dst) {
    std::fill(dst.begin(), dst.end(), 0);
    rec.unrecoverable.push_back({disk, j});
    ++fc.unrecoverable_elements;
  };

  // XOR the value of data element (i, j) into `acc`, best source first:
  // the data copy, an already-staged recovery (in memory, no read), the
  // mirror copy. Reads land in `local_reads` and replica fallbacks in
  // `local_mirror` so a caller whose chain aborts midway can discard
  // them instead of charging reads that were never consumed.
  auto xor_data_into = [&](int i, int j, Buffer& acc,
                           std::vector<ElemPos>& local_reads,
                           int& local_mirror) -> bool {
    const int dd = arch.data_disk(i);
    if (!contains(failed, dd)) {
      if (!arr.element_latent(dd, stripe, j)) {
        gf::region_xor(arr.content(dd, stripe, j), acc);
        local_reads.push_back({dd, j});
        return true;
      }
      ++fc.latent_sectors_hit;
    } else if (rec.staged_ok.at(dd)[static_cast<std::size_t>(j)]) {
      gf::region_xor(rec.staged.at(dd)[static_cast<std::size_t>(j)], acc);
      return true;
    }
    const layout::Pos rp = arch.replica_of(i, j);
    if (!contains(failed, rp.disk)) {
      if (!arr.element_latent(rp.disk, stripe, rp.row)) {
        gf::region_xor(arr.content(rp.disk, stripe, rp.row), acc);
        local_reads.push_back({rp.disk, rp.row});
        ++local_mirror;
        return true;
      }
      ++fc.latent_sectors_hit;
    }
    return false;
  };

  // Copy data element (i, j) into `dst` from a surviving copy: the one
  // the plan reads, else (planned copy latent) the first other readable
  // copy, data copy first, then replica arrays in order — counted as a
  // mirror fallback. False when every surviving copy is latent.
  auto copy_of = [&](int i, int j, int r) {
    return r == 0 ? layout::Pos{arch.data_disk(i), j}
                  : arch.replica_of(i, j, r);
  };
  auto copy_element = [&](int i, int j, Buffer& dst) -> bool {
    auto try_copy = [&](int r) -> bool {
      const layout::Pos p = copy_of(i, j, r);
      if (contains(failed, p.disk)) return false;
      if (arr.element_latent(p.disk, stripe, p.row)) {
        ++fc.latent_sectors_hit;
        return false;
      }
      auto src = arr.content(p.disk, stripe, p.row);
      std::copy(src.begin(), src.end(), dst.begin());
      rec.availability_reads.insert({p.disk, p.row});
      return true;
    };
    int planned = -1;
    for (int r = 0; r <= arch.replicas() && planned < 0; ++r) {
      const layout::Pos p = copy_of(i, j, r);
      if (std::binary_search(plan.availability_reads.begin(),
                             plan.availability_reads.end(),
                             ElementRead{p.disk, p.row}))
        planned = r;
    }
    if (planned >= 0 && try_copy(planned)) return true;
    for (int r = 0; r <= arch.replicas(); ++r) {
      if (r == planned || !try_copy(r)) continue;
      if (planned >= 0) ++fc.fallback_to_mirror;
      return true;
    }
    return false;
  };

  // Recover data element (x, j) through the parity equation (paper
  // Section V-B case 4): XOR of the rest of row j with the parity
  // element. Reads are committed only if the whole chain succeeds.
  auto recover_via_parity = [&](int x, int j, Buffer& dst) -> bool {
    if (!arch.has_parity() || parity_failed) return false;
    const int pd = arch.parity_disk();
    if (arr.element_latent(pd, stripe, j)) {
      ++fc.latent_sectors_hit;
      return false;
    }
    std::vector<ElemPos> local_reads;
    int local_mirror = 0;
    std::fill(dst.begin(), dst.end(), 0);
    for (int i = 0; i < n; ++i) {
      if (i == x) continue;
      if (!xor_data_into(i, j, dst, local_reads, local_mirror)) {
        std::fill(dst.begin(), dst.end(), 0);
        return false;
      }
    }
    gf::region_xor(arr.content(pd, stripe, j), dst);
    local_reads.push_back({pd, j});
    for (const auto& r : local_reads) rec.availability_reads.insert(r);
    fc.fallback_to_mirror += static_cast<std::uint64_t>(local_mirror);
    return true;
  };

  // Data disks first: every later step may consult them.
  for (const int xd : failed_data) {
    const int x = arch.role_index(xd);
    for (int j = 0; j < rows; ++j) {
      Buffer& dst = rec.staged.at(xd)[static_cast<std::size_t>(j)];
      if (copy_element(x, j, dst)) {
        rec.staged_ok.at(xd)[static_cast<std::size_t>(j)] = 1;
        continue;
      }
      if (recover_via_parity(x, j, dst)) {
        rec.staged_ok.at(xd)[static_cast<std::size_t>(j)] = 1;
        ++fc.fallback_to_parity;
        continue;
      }
      mark_unrecoverable(xd, j, dst);
    }
  }

  for (const int yd : failed_mirror) {
    const int y = arch.role_index(yd);
    for (int j = 0; j < rows; ++j) {
      Buffer& dst = rec.staged.at(yd)[static_cast<std::size_t>(j)];
      const layout::Pos src = arch.replicated_by(y, j);
      const int sd = arch.data_disk(src.disk);
      if (contains(failed, sd)) {
        // Source data disk failed too: its staged recovery (if any) is
        // the only copy left besides this lost one.
        if (rec.staged_ok.at(sd)[static_cast<std::size_t>(src.row)]) {
          dst = rec.staged.at(sd)[static_cast<std::size_t>(src.row)];
          rec.staged_ok.at(yd)[static_cast<std::size_t>(j)] = 1;
        } else {
          mark_unrecoverable(yd, j, dst);
        }
        continue;
      }
      if (copy_element(src.disk, src.row, dst)) {
        rec.staged_ok.at(yd)[static_cast<std::size_t>(j)] = 1;
        continue;
      }
      if (recover_via_parity(src.disk, src.row, dst)) {
        rec.staged_ok.at(yd)[static_cast<std::size_t>(j)] = 1;
        ++fc.fallback_to_parity;
        continue;
      }
      mark_unrecoverable(yd, j, dst);
    }
  }

  if (parity_failed) {
    const int pd = arch.parity_disk();
    for (int j = 0; j < rows; ++j) {
      Buffer& dst = rec.staged.at(pd)[static_cast<std::size_t>(j)];
      std::vector<ElemPos> local_reads;
      int local_mirror = 0;
      std::fill(dst.begin(), dst.end(), 0);
      bool ok = true;
      for (int i = 0; i < n; ++i) {
        if (!xor_data_into(i, j, dst, local_reads, local_mirror)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        rec.staged_ok.at(pd)[static_cast<std::size_t>(j)] = 1;
        for (const auto& r : local_reads) rec.parity_rebuild_reads.insert(r);
        fc.fallback_to_mirror += static_cast<std::uint64_t>(local_mirror);
      } else {
        mark_unrecoverable(pd, j, dst);
      }
    }
  }
  return Status::ok();
}

Status recover_raid_stripe(const array::DiskArray& arr, int stripe,
                           const std::vector<int>& failed,
                           StripeRecovery& rec, FaultCounts& fc) {
  const auto* codec = arr.raid_codec();
  assert(codec != nullptr);
  const std::size_t eb = arr.config().content_bytes;
  ec::ColumnSet cs = codec->make_stripe(eb);

  for (const int disk : failed) {
    rec.staged.emplace(
        disk, std::vector<Buffer>(static_cast<std::size_t>(cs.rows()),
                                  Buffer(eb)));
    rec.staged_ok.emplace(
        disk, std::vector<char>(static_cast<std::size_t>(cs.rows()), 0));
  }

  // A latent element on a live column poisons the whole column for the
  // (column-granular) codec: add it to the erasure set and let decode
  // regenerate it alongside the failed columns.
  std::vector<int> erased = failed;
  for (int col = 0; col < cs.columns(); ++col) {
    if (contains(failed, col)) continue;
    bool latent_col = false;
    for (int j = 0; j < cs.rows(); ++j) {
      if (arr.element_latent(col, stripe, j)) {
        ++fc.latent_sectors_hit;
        latent_col = true;
      }
    }
    if (latent_col) {
      erased.push_back(col);
      ++fc.fallback_to_codec;
    }
  }
  std::sort(erased.begin(), erased.end());

  if (static_cast<int>(erased.size()) > codec->fault_tolerance()) {
    // Latent errors pushed the stripe past the code's tolerance: every
    // element of every failed column is lost (zero-filled staging).
    for (const int col : failed) {
      for (int j = 0; j < cs.rows(); ++j) {
        rec.unrecoverable.push_back({col, j});
        ++fc.unrecoverable_elements;
      }
    }
    return Status::ok();
  }

  // Charge reads as plan_raid does: with data lost every read column is
  // an availability read; with only parity lost the data columns are
  // parity-rebuild reads and the surviving parity columns go uncharged.
  const auto& arch = arr.arch();
  bool data_lost = false;
  for (const int col : failed)
    if (arch.role_of(col) == layout::DiskRole::kData) data_lost = true;
  for (int col = 0; col < cs.columns(); ++col) {
    if (contains(erased, col)) continue;
    const bool is_data = arch.role_of(col) == layout::DiskRole::kData;
    for (int j = 0; j < cs.rows(); ++j) {
      auto src = arr.content(col, stripe, j);
      auto dst = cs.element(col, j);
      std::copy(src.begin(), src.end(), dst.begin());
      if (data_lost)
        rec.availability_reads.insert({col, j});
      else if (is_data)
        rec.parity_rebuild_reads.insert({col, j});
    }
  }
  SMA_RETURN_IF_ERROR(codec->decode(cs, erased));
  for (const int col : failed) {
    auto& bufs = rec.staged.at(col);
    auto& oks = rec.staged_ok.at(col);
    for (int j = 0; j < cs.rows(); ++j) {
      auto e = cs.element(col, j);
      std::copy(e.begin(), e.end(),
                bufs[static_cast<std::size_t>(j)].begin());
      oks[static_cast<std::size_t>(j)] = 1;
    }
  }
  return Status::ok();
}

/// Detach the observer from the array on every exit path.
struct ObsGuard {
  array::DiskArray* arr = nullptr;
  ~ObsGuard() {
    if (arr != nullptr) arr->set_observer(nullptr);
  }
};

bool in_sorted(const std::vector<int>& v, int x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace

double ReconReport::read_throughput_mbps() const {
  return throughput_mbps(static_cast<double>(logical_bytes_read),
                         read_makespan_s);
}

Result<ReconReport> reconstruct(array::DiskArray& arr,
                                const ReconOptions& opts) {
  if (arr.crashed())
    return failed_precondition(
        "reconstruct on a crashed (powered-off) array: power_cycle() and "
        "resync before rebuilding");
  repair::RebuildCheckpoint* const ck = opts.checkpoint;
  if (opts.max_stripes >= 0 && ck == nullptr)
    return invalid_argument(
        "ReconOptions::max_stripes requires a checkpoint to record the "
        "watermark");
  if (opts.max_stripes == 0)
    return invalid_argument("ReconOptions::max_stripes must be positive "
                            "(or -1 for unbounded)");
  ReconReport report;
  const auto failed_physical = arr.failed_physical();  // sorted ascending
  if (failed_physical.empty()) {
    if (ck != nullptr) ck->reset();
    return report;
  }

  // Resume state. A checkpoint whose disks are not all still failed is
  // stale (someone healed a checkpointed disk externally): discard it.
  int watermark = 0;
  std::vector<int> prior;
  array::ElementSet skip;
  if (ck != nullptr && ck->valid()) {
    if (ck->covered_by(failed_physical)) {
      watermark = std::min(ck->stripes_done, arr.stripes());
      prior = ck->failed;
      skip = ck->unrecoverable;
    } else {
      ck->reset();
    }
  }
  const repair::SparePlacement placement =
      opts.spare_placement != nullptr ? *opts.spare_placement
                                      : repair::SparePlacement{};
  // Timing runs per stripe when pipelined, and whenever orchestration is
  // on: the checkpoint watermark needs each stripe's completion.
  // Otherwise one barrier times every read, then every write.
  const bool per_stripe = opts.pipelined || ck != nullptr ||
                          opts.max_stripes >= 0 || placement.active();

  obs::Observer* const ob = opts.observer.get();
  ObsGuard obs_guard;
  if (ob != nullptr) {
    arr.set_observer(ob);
    obs_guard.arr = &arr;
  }
  // Disk-scoped events (failure, heal) name a disk; rebuild batch
  // events name their stripe (-1 for the barrier's single batch).
  auto emit = [ob](obs::EventKind kind, double t, int disk, int stripe) {
    if (ob == nullptr) return;
    obs::TraceEvent ev;
    ev.kind = kind;
    ev.t_s = t;
    ev.disk = disk;
    ev.stripe = stripe;
    ev.rebuild = disk < 0;
    ob->emit(ev);
  };
  for (const int p : failed_physical)
    emit(obs::EventKind::kFailure, 0.0, p, -1);

  const auto& arch = arr.arch();
  const int rows = arch.rows();
  arr.reset_timelines();

  // Dirty-stripe detection must also see dead *hot spares* — they hold
  // rebuilt copies but never appear in failed_physical() (they carry no
  // addressable elements).
  std::vector<int> dead_now = failed_physical;
  for (int p = arr.total_disks(); p < arr.physical_count(); ++p)
    if (arr.physical(p).failed()) dead_now.push_back(p);

  // A covered stripe is only truly covered while its rebuilt copies
  // still exist. Copies on spare targets are checked by stripe_dirty();
  // copies rebuilt *in place* live on the failed disk's restored slots,
  // which a re-failure of that disk (or crash garbling) wipes — such
  // stripes must be re-rebuilt, not skipped.
  auto covered_intact = [&](int s) {
    for (const int p : prior) {
      if (ck->placement.target_for(p, s) >= 0) continue;
      const auto& d = arr.physical(p);
      for (int j = 0; j < rows; ++j)
        if (!d.slot_restored(arr.slot(s, j))) return false;
    }
    return true;
  };

  // The pending timing batch: one stripe's I/O, or every stripe's under
  // the barrier. Reads start at t = 0; the batch's replacement writes
  // start when its reads complete. False when power was lost mid-batch:
  // its writes may be torn, so they are not counted as restored.
  std::vector<array::Op> reads;
  std::vector<array::Op> writes;
  int batch_stripes = 0;
  auto time_batch = [&](int stripe) {
    emit(obs::EventKind::kRebuildIssue, 0.0, -1, stripe);
    const auto rstats = arr.execute(reads, 0.0);
    if (per_stripe) report.stripe_read_done_s.push_back(rstats.end_s);
    emit(obs::EventKind::kRebuildComplete, rstats.end_s, -1, stripe);
    report.read_makespan_s = std::max(report.read_makespan_s, rstats.end_s);
    report.logical_bytes_read += rstats.logical_bytes_read;
    const auto wstats = arr.execute(writes, rstats.end_s);
    report.total_makespan_s = std::max(report.total_makespan_s, wstats.end_s);
    report.logical_bytes_recovered += wstats.logical_bytes_written;
    report.retried_ops += rstats.retried_ops + wstats.retried_ops;
    report.hard_errors += rstats.failed_ops + wstats.failed_ops;
    report.elements_read += reads.size();
    if (arr.crashed()) return false;
    report.elements_written += writes.size();
    report.stripes_processed += batch_stripes;
    reads.clear();
    writes.clear();
    batch_stripes = 0;
    return true;
  };

  FaultCounts fc;
  int next_stripe = arr.stripes();
  bool interrupted = false;
  for (int s = 0; s < arr.stripes(); ++s) {
    // Classify: skip / partial (new disks only) / full (fresh or dirty).
    std::vector<int> rebuild_phys;
    if (s < watermark && !ck->stripe_dirty(s, dead_now) &&
        covered_intact(s)) {
      for (const int p : failed_physical)
        if (!in_sorted(prior, p)) rebuild_phys.push_back(p);
      if (rebuild_phys.empty()) {
        ++report.stripes_skipped;
        continue;
      }
    } else {
      rebuild_phys = failed_physical;
    }
    if (opts.max_stripes >= 0 && report.stripes_processed >= opts.max_stripes) {
      interrupted = true;
      next_stripe = s;
      break;
    }

    std::vector<int> rebuild_logical;
    rebuild_logical.reserve(rebuild_phys.size());
    for (const int p : rebuild_phys)
      rebuild_logical.push_back(arr.logical_disk(p, s));
    std::sort(rebuild_logical.begin(), rebuild_logical.end());

    auto plan = plan_reconstruction(arch, rebuild_logical);
    if (!plan.is_ok()) return plan.status();
    report.read_accesses_per_stripe = std::max(
        report.read_accesses_per_stripe, plan.value().read_accesses(arch));

    // Recover contents. Still-failed disks NOT being rebuilt this
    // stripe (checkpoint-covered prior disks) act as live sources:
    // their restored contents are valid and their restored slots serve.
    StripeRecovery rec;
    Status recovered =
        arch.is_mirror()
            ? recover_mirror_stripe(arr, s, rebuild_logical, plan.value(),
                                    rec, fc)
            : recover_raid_stripe(arr, s, rebuild_logical, rec, fc);
    if (!recovered.is_ok()) return recovered;
    for (const auto& [d, r] : rec.unrecoverable) skip.insert({d, s, r});

    // Timing reads: exactly what recovery consumed, fallback detours
    // included. A read whose physical source is a still-failed prior
    // disk goes to the checkpointed spare target holding the rebuilt
    // copy, or to the restored slots in place when rebuilt in place.
    auto push_read = [&](int d, int r) {
      array::Op op{d, s, r, disk::IoKind::kRead};
      const int phys = arr.physical_disk(d, s);
      if (ck != nullptr && in_sorted(failed_physical, phys))
        op.redirect_phys = ck->placement.target_for(phys, s);
      reads.push_back(op);
    };
    for (const auto& [d, r] : rec.availability_reads) push_read(d, r);
    if (opts.include_parity_rebuild)
      for (const auto& [d, r] : rec.parity_rebuild_reads)
        if (rec.availability_reads.count({d, r}) == 0) push_read(d, r);

    // Restore contents before timing (a failed disk's replacement
    // serves only restored slots), redirecting the timed writes to this
    // round's spare targets.
    for (auto& [logical, buffers] : rec.staged) {
      const int target = placement.target_for(arr.physical_disk(logical, s), s);
      for (int j = 0; j < rows; ++j) {
        arr.restore_element(logical, s, j,
                            buffers[static_cast<std::size_t>(j)]);
        array::Op op{logical, s, j, disk::IoKind::kWrite};
        op.redirect_phys = target;
        writes.push_back(op);
      }
    }
    ++batch_stripes;

    if (per_stripe && !time_batch(s)) {
      // Power loss mid-stripe: this stripe's replacement writes may be
      // torn, so the conservative watermark excludes it — the resumed
      // round rebuilds stripe s from scratch.
      interrupted = true;
      next_stripe = s;
      break;
    }
  }
  if (!per_stripe && !time_batch(-1)) interrupted = true;
  report.total_makespan_s =
      std::max(report.total_makespan_s, report.read_makespan_s);
  report.latent_sectors_hit = fc.latent_sectors_hit;
  report.fallback_to_mirror = fc.fallback_to_mirror;
  report.fallback_to_parity = fc.fallback_to_parity;
  report.fallback_to_codec = fc.fallback_to_codec;
  report.unrecoverable_elements = fc.unrecoverable_elements;

  if (ob != nullptr) {
    ob->count("recon.bytes_read", report.logical_bytes_read);
    ob->count("recon.bytes_recovered", report.logical_bytes_recovered);
  }

  if (interrupted) {
    // Disks stay failed and verification is deferred to the completing
    // round. With a checkpoint, record the watermark (multi-round
    // placement history collapses to the latest round's placement; see
    // RebuildCheckpoint); without one the next round restarts.
    report.completed = false;
    if (ck != nullptr) {
      ck->failed = failed_physical;
      ck->stripes_done = next_stripe;
      ck->elements_restored += report.elements_written;
      ck->unrecoverable = skip;
      ck->placement = placement.active() ? placement : ck->placement;
    }
    return report;
  }

  for (const int p : failed_physical)
    SMA_RETURN_IF_ERROR(arr.physical(p).heal());
  for (const int p : failed_physical)
    emit(obs::EventKind::kHeal, report.total_makespan_s, p, -1);
  if (ck != nullptr) ck->reset();
  if (opts.verify) {
    Status ok = arr.verify_consistency(skip.empty() ? nullptr : &skip);
    if (!ok.is_ok()) return ok;
  }
  return report;
}

}  // namespace sma::recon
