// E6b — Replicated governance under realistic networking (paper §III-A).
//
// The governance layer must stay consistent when validators communicate
// over a lossy wide-area network. This harness runs the full-mesh PoA
// validator network over the DES and reports chain progress, replica
// divergence and sync-protocol activity across packet-loss rates, plus
// block propagation under growing validator sets. Section (c) sweeps the
// thread count of parallel block validation (signature batch + tx root)
// and writes the "consensus" section of BENCH_parallel.json.
//
// Section (g) is the E15 parallel-execution experiment: sustained
// 1000-transfer blocks over 100k accounts, applied at 1/2/4 threads across
// a conflict sweep. It writes the "parallel_exec" section.
//
// The E11 (d, e), E13 (f) and E16 (h) sections live in bench_robustness,
// bench_durability and bench_byzantine.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "chain/chain.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "p2p/validator_network.h"

namespace {

using namespace pds2;
using chain::Blockchain;
using chain::ChainConfig;
using chain::ContractRegistry;

constexpr char kReport[] = "BENCH_parallel.json";

struct RunOutcome {
  uint64_t min_height = 0;
  uint64_t max_height = 0;
  uint64_t syncs = 0;
  uint64_t messages = 0;
  bool balances_agree = true;
};

RunOutcome Run(size_t validators, double drop_rate, uint64_t seed) {
  crypto::SigningKey alice = crypto::SigningKey::FromSeed(common::ToBytes("a"));
  const chain::Address bob = chain::AddressFromPublicKey(
      crypto::SigningKey::FromSeed(common::ToBytes("b")).PublicKey());
  std::vector<p2p::GenesisAlloc> genesis = {
      {chain::AddressFromPublicKey(alice.PublicKey()), 1'000'000'000}};

  dml::NetConfig net;
  net.base_latency = 30 * common::kMicrosPerMilli;
  net.latency_jitter = 20 * common::kMicrosPerMilli;
  net.drop_rate = drop_rate;

  std::vector<p2p::ValidatorNode*> nodes;
  auto sim = p2p::MakeValidatorNetwork(validators, genesis,
                                       common::kMicrosPerSecond, net, seed,
                                       &nodes);
  sim->Start();

  // A trickle of transfers submitted at rotating validators.
  for (uint64_t i = 0; i < 10; ++i) {
    chain::Transaction tx = chain::Transaction::Make(
        alice, i, bob, 10, 100000, chain::CallPayload{});
    dml::NodeContext ctx(*sim, i % validators);
    (void)nodes[i % validators]->SubmitTransaction(tx, ctx);
    sim->RunUntil((i + 1) * 2 * common::kMicrosPerSecond);
  }
  sim->RunUntil(40 * common::kMicrosPerSecond);

  RunOutcome outcome;
  outcome.min_height = UINT64_MAX;
  uint64_t reference_balance = nodes[0]->chain().GetBalance(bob);
  for (p2p::ValidatorNode* node : nodes) {
    outcome.min_height = std::min(outcome.min_height, node->chain().Height());
    outcome.max_height = std::max(outcome.max_height, node->chain().Height());
    outcome.syncs += node->sync_requests_sent();
    if (node->chain().GetBalance(bob) != reference_balance) {
      outcome.balances_agree = false;
    }
  }
  outcome.messages = sim->stats().messages_sent;
  return outcome;
}

// (a) packet loss and (b) validator-set size; printed only.
void PropagationSweeps() {
  std::printf("-- (a) packet-loss sweep (4 validators, 40 s) --\n");
  std::printf("%10s %12s %12s %10s %12s %14s\n", "loss", "min height",
              "max height", "syncs", "messages", "state agree");
  for (double loss : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    RunOutcome o = Run(4, loss, 11);
    std::printf("%10.2f %12" PRIu64 " %12" PRIu64 " %10" PRIu64 " %12" PRIu64
                " %14s\n",
                loss, o.min_height, o.max_height, o.syncs, o.messages,
                o.balances_agree ? "yes" : "NO");
  }

  std::printf("\n-- (b) validator-set sweep (5%% loss) --\n");
  std::printf("%12s %12s %12s %14s\n", "validators", "min height",
              "messages", "msgs/block");
  for (size_t n : {3u, 5u, 9u, 13u}) {
    RunOutcome o = Run(n, 0.05, 13);
    std::printf("%12zu %12" PRIu64 " %12" PRIu64 " %14.0f\n", n,
                o.min_height, o.messages,
                o.min_height > 0
                    ? static_cast<double>(o.messages) /
                          static_cast<double>(o.min_height)
                    : 0.0);
  }
  std::printf("\n(full-mesh broadcast: traffic grows quadratically in the "
              "validator count — PoA committees stay small)\n");
}

// (c) parallel block validation thread sweep; the "consensus" section.
bench::Json ValidationSweep() {
  std::printf("\n-- (c) parallel block validation (128 transfers/block) --\n");
  constexpr size_t kTxs = 128;
  constexpr int kReps = 3;
  crypto::SigningKey validator =
      crypto::SigningKey::FromSeed(common::ToBytes("validator-0"));
  crypto::SigningKey alice =
      crypto::SigningKey::FromSeed(common::ToBytes("alice"));
  const chain::Address bob = chain::AddressFromPublicKey(
      crypto::SigningKey::FromSeed(common::ToBytes("bob")).PublicKey());
  const chain::Address alice_addr =
      chain::AddressFromPublicKey(alice.PublicKey());

  Blockchain producer({validator.PublicKey()},
                      ContractRegistry::CreateDefault());
  (void)producer.CreditGenesis(alice_addr, 1'000'000'000'000ULL);
  std::vector<chain::Transaction> txs;
  for (size_t i = 0; i < kTxs; ++i) {
    txs.push_back(chain::Transaction::Make(alice, i, bob, 1, 100000,
                                           chain::CallPayload{}));
    (void)producer.SubmitTransaction(txs.back());
  }
  auto block = producer.ProduceBlock(validator, 1);
  bench::Require(block.ok(),
                 "block production failed: " + block.status().ToString());

  // The pre-batching baseline: one Schnorr verification per transaction,
  // exactly what VerifyBlockSignatures did before the batch-equation path.
  bench::Timer per_entry_timer;
  for (const auto& tx : block->transactions) {
    bench::Require(tx.VerifySignature().ok(), "signature rejected");
  }
  const double per_entry_ms = per_entry_timer.ElapsedMs();
  std::printf("per-entry verification baseline: %.2f ms for %zu txs\n",
              per_entry_ms, kTxs);

  std::printf("%10s %14s %10s\n", "threads", "apply ms", "speedup");
  double base_ms = 0.0;
  std::vector<bench::Json> sweep;
  for (size_t threads : bench::ThreadSweep()) {
    common::ThreadPool pool(threads);
    ChainConfig config;
    config.thread_pool = &pool;
    double best_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      // Fresh replica each repetition: the signature cache is cold, so
      // every signature in the block is actually checked on the pool.
      Blockchain replica({validator.PublicKey()},
                         ContractRegistry::CreateDefault(), config);
      (void)replica.CreditGenesis(alice_addr, 1'000'000'000'000ULL);
      bench::Timer timer;
      bench::Require(replica.ApplyExternalBlock(*block).ok(),
                     "replica rejected the block");
      const double ms = timer.ElapsedMs();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    if (base_ms == 0.0) base_ms = best_ms;
    const double speedup = best_ms > 0.0 ? base_ms / best_ms : 0.0;
    std::printf("%10zu %14.2f %10.2f\n", threads, best_ms, speedup);
    sweep.push_back(bench::Json()
                        .Add("threads", threads)
                        .Add("apply_ms", best_ms)
                        .Add("speedup", speedup));
  }

  // The shared verification cache: a replica that already admitted every
  // transaction to its mempool re-checks nothing at block arrival.
  Blockchain warm({validator.PublicKey()}, ContractRegistry::CreateDefault());
  (void)warm.CreditGenesis(alice_addr, 1'000'000'000'000ULL);
  for (const auto& tx : txs) (void)warm.SubmitTransaction(tx);
  const uint64_t before = warm.SignatureVerifications();
  bench::Timer warm_timer;
  const bool warm_ok = warm.ApplyExternalBlock(*block).ok();
  const double warm_ms = warm_timer.ElapsedMs();
  const uint64_t extra = warm.SignatureVerifications() - before;
  std::printf("cached path: apply after submitting all %zu txs -> %" PRIu64
              " extra verifies, %.2f ms%s\n",
              kTxs, extra, warm_ms, warm_ok ? "" : " (REJECTED)");
  return bench::Json()
      .Add("txs_per_block", kTxs)
      .Add("per_entry_verify_ms", per_entry_ms)
      .Add("cached_apply_extra_verifies", extra)
      .Add("cached_apply_ms", warm_ms)
      .Add("sweep", sweep);
}

// --- (g) E15 parallel execution: sustained load, conflict sweep. -----------

constexpr size_t kAccounts = 100'000;
constexpr size_t kLoadTxs = 1'000;  // transfers per block
constexpr size_t kBlocks = 2;       // sustained: back-to-back full blocks

chain::Address DerivedAddress(const std::string& tag) {
  common::Bytes h = crypto::Sha256::Hash(tag);
  h.resize(chain::kAddressSize);
  return h;
}

// The validator and the kLoadTxs funded senders shared by every replica
// of the sweep, over a genesis of kAccounts accounts.
struct LoadSetup {
  crypto::SigningKey validator =
      crypto::SigningKey::FromSeed(common::ToBytes("validator-0"));
  std::vector<crypto::SigningKey> senders;

  LoadSetup() {
    for (size_t i = 0; i < kLoadTxs; ++i) {
      senders.push_back(crypto::SigningKey::FromSeed(
          common::ToBytes("par-sender-" + std::to_string(i))));
    }
  }

  Blockchain MakeChain(common::ThreadPool* pool) const {
    ChainConfig config;
    config.thread_pool = pool;
    Blockchain bc({validator.PublicKey()}, ContractRegistry::CreateDefault(),
                  config);
    for (const crypto::SigningKey& sender : senders) {
      (void)bc.CreditGenesis(chain::AddressFromPublicKey(sender.PublicKey()),
                             1'000'000'000ULL);
    }
    // Filler accounts up to kAccounts so state digests and account-map
    // operations run at a realistic (not toy) state size.
    for (size_t i = kLoadTxs; i < kAccounts; ++i) {
      (void)bc.CreditGenesis(DerivedAddress("par-filler-" +
                                            std::to_string(i)),
                             1);
    }
    return bc;
  }

  // kBlocks full blocks where exactly `conflict`% of each block's
  // transfers land on one shared hot account.
  std::vector<chain::Block> ProduceBlocks(int conflict) const {
    Blockchain producer = MakeChain(nullptr);
    const chain::Address hot =
        DerivedAddress("par-hot-" + std::to_string(conflict));
    std::vector<chain::Block> blocks;
    for (size_t b = 0; b < kBlocks; ++b) {
      for (size_t i = 0; i < kLoadTxs; ++i) {
        // Bresenham spread: exactly conflict% of the block's transfers
        // land on the shared hot account, evenly interleaved.
        const bool contended =
            ((i + 1) * static_cast<size_t>(conflict)) / 100 >
            (i * static_cast<size_t>(conflict)) / 100;
        const chain::Address to =
            contended ? hot
                      : DerivedAddress("par-cold-" + std::to_string(b) + "-" +
                                       std::to_string(i));
        (void)producer.SubmitTransaction(chain::Transaction::Make(
            senders[i], b, to, 1, 100000, chain::CallPayload{}));
      }
      auto block = producer.ProduceBlock(validator, b + 1);
      bench::Require(block.ok() && block->transactions.size() == kLoadTxs,
                     "parallel_exec: block production failed");
      blocks.push_back(*std::move(block));
    }
    return blocks;
  }
};

// Mean per-block apply time of `blocks` on a fresh replica with a
// `threads`-thread pool; with `warm`, every transaction goes through the
// mempool first so the signature cache is hot and the timed section is
// execution + digests.
double ApplyMs(const LoadSetup& setup, const std::vector<chain::Block>& blocks,
               size_t threads, bool warm) {
  common::ThreadPool pool(threads);
  Blockchain replica = setup.MakeChain(&pool);
  double total_ms = 0.0;
  for (const chain::Block& block : blocks) {
    if (warm) {
      for (const auto& tx : block.transactions) {
        (void)replica.SubmitTransaction(tx);
      }
    }
    bench::Timer timer;
    bench::Require(replica.ApplyExternalBlock(block).ok(),
                   "parallel_exec: replica rejected the block");
    total_ms += timer.ElapsedMs();
  }
  return total_ms / static_cast<double>(blocks.size());
}

uint64_t Counter(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

// One conflict rate of the sweep: the sequential baseline, then the apply
// time at 1, 2 and 4 threads, with the lane counters of the 4-thread run.
bench::Json ConflictCell(const LoadSetup& setup, int conflict) {
  const std::vector<chain::Block> blocks = setup.ProduceBlocks(conflict);

  // Sequential baseline = the pre-lane pipeline per block: one Schnorr
  // verification per transaction plus strictly serial execution.
  bench::Timer per_entry_timer;
  for (const chain::Block& block : blocks) {
    for (const auto& tx : block.transactions) {
      bench::Require(tx.VerifySignature().ok(),
                     "parallel_exec: signature rejected");
    }
  }
  const double per_entry_ms =
      per_entry_timer.ElapsedMs() / static_cast<double>(kBlocks);
  const double serial_exec_ms = ApplyMs(setup, blocks, 1, /*warm=*/true);
  const double baseline_ms = per_entry_ms + serial_exec_ms;

  bench::Json cell;
  cell.Add("conflict_pct", conflict)
      .Add("per_entry_verify_ms", per_entry_ms)
      .Add("serial_exec_ms", serial_exec_ms)
      .Add("sequential_baseline_ms", baseline_ms);
  // After the loop these hold the 4-thread run: its time and the
  // chain.parallel.* counters it moved.
  double apply_ms = 0.0, lanes_per_block = 0.0;
  uint64_t parallel = 0, serial = 0, aborts = 0;
  constexpr std::pair<size_t, const char*> kRuns[] = {
      {1, "apply_ms_1t"}, {2, "apply_ms_2t"}, {4, "apply_ms_4t"}};
  for (const auto& [threads, key] : kRuns) {
    const uint64_t lanes0 = Counter("chain.parallel.lanes");
    const uint64_t parallel0 = Counter("chain.parallel.blocks_parallel");
    const uint64_t serial0 = Counter("chain.parallel.blocks_serial");
    const uint64_t aborts0 = Counter("chain.parallel.aborts");
    apply_ms = ApplyMs(setup, blocks, threads, /*warm=*/false);
    const uint64_t lanes = Counter("chain.parallel.lanes") - lanes0;
    parallel = Counter("chain.parallel.blocks_parallel") - parallel0;
    serial = Counter("chain.parallel.blocks_serial") - serial0;
    aborts = Counter("chain.parallel.aborts") - aborts0;
    lanes_per_block = parallel > 0 ? static_cast<double>(lanes) /
                                         static_cast<double>(parallel)
                                   : 0.0;
    std::printf("%9d%% %8zu %12.2f %16.2f %12.1f\n", conflict, threads,
                apply_ms, apply_ms > 0.0 ? baseline_ms / apply_ms : 0.0,
                lanes_per_block);
    cell.Add(key, apply_ms);
  }
  return cell
      .Add("speedup_vs_sequential_4t",
           apply_ms > 0.0 ? baseline_ms / apply_ms : 0.0)
      .Add("lanes_per_block", lanes_per_block)
      .Add("parallel_blocks", parallel)
      .Add("serial_blocks", serial)
      .Add("aborted_speculations", aborts);
}

// (g) the conflict sweep; the "parallel_exec" section.
bench::Json ParallelExecSweep() {
  std::printf("\n-- (g) E15 parallel tx execution: 100k accounts, 1000-tx "
              "blocks, conflict sweep --\n");
  const LoadSetup setup;
  obs::SetMetricsEnabled(true);
  std::printf("%10s %8s %12s %16s %12s\n", "conflict", "threads", "apply ms",
              "speedup vs seq", "lanes/blk");
  std::vector<bench::Json> cells;
  for (int conflict : {0, 25, 50, 100}) {
    cells.push_back(ConflictCell(setup, conflict));
  }
  obs::SetMetricsEnabled(false);
  return bench::Json()
      .Add("accounts", kAccounts)
      .Add("txs_per_block", kLoadTxs)
      .Add("blocks_per_cell", kBlocks)
      .Add("hardware_threads", common::ThreadPool::DefaultThreadCount())
      .Add("cells", cells);
}

}  // namespace

int main() {
  bench::Banner("E6b: replicated governance over a lossy network",
                "replicas converge; the sync protocol absorbs packet loss");
  PropagationSweeps();
  const bool written =
      bench::WriteReportSection(kReport, "consensus", ValidationSweep()) &&
      bench::WriteReportSection(kReport, "parallel_exec", ParallelExecSweep());
  return written ? 0 : 1;
}
