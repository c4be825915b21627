// E13 — Durable chain storage: recovery time (paper §III-A).
//
// Section (f) measures recovery (reopen) time as a function of chain
// length and snapshot cadence: genesis full replay vs the
// snapshot-plus-log-tail shortcut. Writes BENCH_durability.json.

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chain/chain.h"
#include "storage/chain_store.h"

namespace {

using namespace pds2;
namespace fs = std::filesystem;

constexpr int kTxsPerBlock = 4;

// Writes a `blocks`-long chain into `dir` with the given snapshot cadence,
// then times one reopen and returns the sweep cell. `full_replay_ms`
// holds the same-length interval-0 time for the speedup.
bench::Json RecoveryCell(const std::string& dir, uint64_t blocks,
                         uint64_t interval, double* full_replay_ms) {
  crypto::SigningKey validator =
      crypto::SigningKey::FromSeed(common::ToBytes("validator-0"));
  crypto::SigningKey alice =
      crypto::SigningKey::FromSeed(common::ToBytes("alice"));
  const chain::Address alice_addr =
      chain::AddressFromPublicKey(alice.PublicKey());
  const chain::Address bob = chain::AddressFromPublicKey(
      crypto::SigningKey::FromSeed(common::ToBytes("bob")).PublicKey());

  storage::ChainStoreOptions opts;
  opts.snapshot_interval = interval;
  // We time the replay, not the disk flushes, and measure the raw
  // snapshot shortcut (the paranoid cross-check would re-replay).
  opts.fsync = false;
  opts.paranoid_recovery = false;
  const std::vector<storage::GenesisAccount> genesis = {
      {alice_addr, 1'000'000'000'000ULL}};
  {
    auto rec = storage::OpenBlockchain(dir, {validator.PublicKey()}, genesis,
                                       {}, opts);
    bench::Require(rec.ok(),
                   "durable open failed: " + rec.status().ToString());
    common::SimTime now = 0;
    for (uint64_t b = 0; b < blocks; ++b) {
      for (int t = 0; t < kTxsPerBlock; ++t) {
        (void)rec->chain->SubmitTransaction(chain::Transaction::Make(
            alice, rec->chain->GetNonce(alice_addr) + t, bob, 1, 100000,
            chain::CallPayload{}));
      }
      auto block = rec->chain->ProduceBlock(validator, ++now);
      bench::Require(block.ok(), "block production failed: " +
                                     block.status().ToString());
    }
  }

  bench::Timer timer;
  auto rec = storage::OpenBlockchain(dir, {validator.PublicKey()}, genesis,
                                     {}, opts);
  const double ms = timer.ElapsedMs();
  bench::Require(rec.ok() && rec->chain->Height() == blocks,
                 "recovery failed for " + std::to_string(blocks) +
                     " blocks / interval " + std::to_string(interval));
  if (interval == 0) *full_replay_ms = ms;
  const double log_kib =
      static_cast<double>(fs::file_size(dir + "/blocks.log")) / 1024.0;
  double snapshot_kib = 0.0;
  if (rec->info.used_snapshot) {
    snapshot_kib = static_cast<double>(fs::file_size(
                       dir + "/snapshot-" +
                       std::to_string(rec->info.snapshot_height))) /
                   1024.0;
  }
  std::printf("%8" PRIu64 " %10" PRIu64 " %10s %10" PRIu64 " %12.2f %10.1f\n",
              blocks, interval, rec->info.used_snapshot ? "yes" : "no",
              rec->info.replayed_blocks, ms, log_kib);
  return bench::Json()
      .Add("blocks", blocks)
      .Add("snapshot_interval", interval)
      .Add("used_snapshot", rec->info.used_snapshot)
      .Add("replayed_blocks", rec->info.replayed_blocks)
      .Add("recovery_ms", ms)
      .Add("speedup_vs_full_replay", ms > 0.0 ? *full_replay_ms / ms : 0.0)
      .Add("log_kib", log_kib)
      .Add("snapshot_kib", snapshot_kib);
}

}  // namespace

int main() {
  bench::Banner("E13 (f): recovery time vs chain length & snapshot cadence",
                "snapshots bound recovery time; full replay is linear");
  const std::string root =
      (fs::temp_directory_path() / "pds2_bench_durability").string();
  fs::remove_all(root);
  std::printf("%8s %10s %10s %10s %12s %10s\n", "blocks", "interval",
              "snapshot", "replayed", "recover ms", "log KiB");
  std::vector<bench::Json> cells;
  double full_replay_ms = 0.0;
  // Not multiples of the snapshot interval, so the snapshot cells also
  // exercise the log-tail replay behind the newest snapshot.
  for (uint64_t blocks : {60u, 250u, 500u}) {
    for (uint64_t interval : {0u, 16u, 64u}) {
      const std::string dir = root + "/n" + std::to_string(blocks) + "-k" +
                              std::to_string(interval);
      cells.push_back(RecoveryCell(dir, blocks, interval, &full_replay_ms));
    }
  }
  fs::remove_all(root);
  std::printf("(snapshots bound recovery to the log tail behind the newest "
              "snapshot; full replay grows linearly with chain length)\n");

  const bench::Json sweep = bench::Json()
                                .Add("txs_per_block", kTxsPerBlock)
                                .Add("fsync", false)
                                .Add("paranoid_recovery", false)
                                .Add("cells", cells);
  return bench::WriteReportSection("BENCH_durability.json", "recovery_sweep",
                                   sweep)
             ? 0
             : 1;
}
