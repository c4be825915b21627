// Micro-benchmarks (google-benchmark) for the cryptographic and ledger
// primitives every experiment builds on. These are the per-operation
// latencies that calibrate the cost models quoted in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chain/chain.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/cipher.h"
#include "crypto/merkle.h"
#include "crypto/paillier.h"
#include "crypto/schnorr.h"
#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "tee/oblivious.h"

namespace {

using namespace pds2;

void BM_Sha256(benchmark::State& state) {
  common::Rng rng(1);
  common::Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// The compression alone over range(1) blocks: range(0) = 0 is the portable
// reference, 1 the per-process dispatched path (SHA extensions where the
// CPU has them).
void BM_Sha256Compress(benchmark::State& state) {
  const size_t blocks = static_cast<size_t>(state.range(1));
  common::Rng rng(1);
  const common::Bytes data = rng.NextBytes(64 * blocks);
  crypto::Sha256 dispatched;
  uint32_t words[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (auto _ : state) {
    if (state.range(0) == 0) {
      crypto::internal::Sha256CompressPortable(words, data.data(), blocks);
    } else {
      dispatched.Update(data);
    }
    benchmark::DoNotOptimize(words);
    benchmark::DoNotOptimize(dispatched);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Sha256Compress)
    ->ArgNames({"dispatched", "blocks"})
    ->ArgsProduct({{0, 1}, {1, 1024}});

void BM_FieldMul(benchmark::State& state) {
  common::Rng rng(1);
  crypto::Fe25519 a = crypto::Fe25519::FromBytes(rng.NextBytes(32));
  const crypto::Fe25519 b = crypto::Fe25519::FromBytes(rng.NextBytes(32));
  for (auto _ : state) {
    a = crypto::Fe25519::Mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldSquare(benchmark::State& state) {
  common::Rng rng(1);
  crypto::Fe25519 a = crypto::Fe25519::FromBytes(rng.NextBytes(32));
  for (auto _ : state) {
    a = crypto::Fe25519::Square(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldSquare);

void BM_PointDouble(benchmark::State& state) {
  crypto::EdPoint p = crypto::EdPoint::Base();
  for (auto _ : state) {
    p = crypto::EdPoint::Double(p);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PointDouble);

// One addition of a table entry (cached form), the inner step of every
// scalar multiplication.
void BM_PointAddCached(benchmark::State& state) {
  crypto::EdPoint p = crypto::EdPoint::Base();
  const crypto::EdPoint::Cached q =
      crypto::EdPoint::ScalarBaseMul(crypto::BigUint(7)).ToCached();
  for (auto _ : state) {
    p = crypto::EdPoint::Add(p, q);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PointAddCached);

void BM_SchnorrSign(benchmark::State& state) {
  common::Rng rng(2);
  crypto::SigningKey key = crypto::SigningKey::Generate(rng);
  common::Bytes msg = rng.NextBytes(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Sign(msg));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  common::Rng rng(3);
  crypto::SigningKey key = crypto::SigningKey::Generate(rng);
  common::Bytes msg = rng.NextBytes(128);
  common::Bytes sig = key.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::VerifySignature(key.PublicKey(), msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_KeyFromSeed(benchmark::State& state) {
  const common::Bytes seed = common::ToBytes("device-001");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::SigningKey::FromSeed(seed));
  }
}
BENCHMARK(BM_KeyFromSeed);

void BM_SharedSecret(benchmark::State& state) {
  common::Rng rng(8);
  crypto::SigningKey key = crypto::SigningKey::Generate(rng);
  crypto::SigningKey peer = crypto::SigningKey::Generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.SharedSecret(peer.PublicKey()));
  }
}
BENCHMARK(BM_SharedSecret);

void BM_AuthCipherSeal(benchmark::State& state) {
  common::Rng rng(9);
  crypto::AuthCipher cipher(rng.NextBytes(32));
  common::Bytes plaintext = rng.NextBytes(static_cast<size_t>(state.range(0)));
  common::Bytes nonce_seed = rng.NextBytes(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.Seal(plaintext, nonce_seed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AuthCipherSeal)->Arg(65536);

void BM_PaillierEncrypt(benchmark::State& state) {
  common::Rng rng(4);
  static crypto::PaillierKeyPair* kp = new crypto::PaillierKeyPair(
      crypto::PaillierKeyPair::Generate(
          static_cast<size_t>(state.range(0)), rng));
  crypto::BigUint m(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp->public_key().Encrypt(m, rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(512);

void BM_MerkleBuild(benchmark::State& state) {
  common::Rng rng(5);
  std::vector<common::Bytes> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(rng.NextBytes(64));
  }
  for (auto _ : state) {
    crypto::MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.Root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(64)->Arg(1024);

void BM_MerkleBuildParallel(benchmark::State& state) {
  // Args: {leaves, threads}. threads=1 is the inline sequential path — the
  // baseline the speedup of wider pools is read against.
  common::Rng rng(5);
  std::vector<common::Bytes> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(rng.NextBytes(64));
  }
  common::ThreadPool pool(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    crypto::MerkleTree tree(leaves, &pool);
    benchmark::DoNotOptimize(tree.Root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleBuildParallel)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({8192, 1})
    ->Args({8192, 4});

void BM_SchnorrVerifyBatchParallel(benchmark::State& state) {
  // Args: {signatures, threads}. The block-validation hot loop: verify a
  // batch of independent (pubkey, msg, sig) triples on the pool.
  common::Rng rng(7);
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<crypto::SigningKey> keys;
  std::vector<common::Bytes> msgs;
  std::vector<common::Bytes> sigs;
  for (size_t i = 0; i < batch; ++i) {
    keys.push_back(crypto::SigningKey::Generate(rng));
    msgs.push_back(rng.NextBytes(128));
    sigs.push_back(keys.back().Sign(msgs.back()));
  }
  common::ThreadPool pool(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    std::vector<uint8_t> ok(batch, 0);
    pool.ParallelFor(0, batch, [&](size_t i) {
      ok[i] = crypto::VerifySignature(keys[i].PublicKey(), msgs[i], sigs[i])
                  .ok();
    });
    benchmark::DoNotOptimize(ok.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchnorrVerifyBatchParallel)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4});

void BM_ObliviousSort(benchmark::State& state) {
  common::Rng rng(6);
  std::vector<uint64_t> base(static_cast<size_t>(state.range(0)));
  for (auto& v : base) v = rng.NextU64();
  for (auto _ : state) {
    auto copy = base;
    tee::ObliviousSort(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ObliviousSort)->Arg(1024)->Arg(8192);

void BM_NativeTransferBlock(benchmark::State& state) {
  // Cost of producing a block with `range` plain transfers.
  using namespace chain;
  crypto::SigningKey validator =
      crypto::SigningKey::FromSeed(common::ToBytes("v"));
  crypto::SigningKey sender = crypto::SigningKey::FromSeed(common::ToBytes("s"));
  const Address to(kAddressSize, 7);
  common::SimTime now = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Blockchain bc({validator.PublicKey()}, ContractRegistry::CreateDefault());
    (void)bc.CreditGenesis(AddressFromPublicKey(sender.PublicKey()),
                           1'000'000'000'000ULL);
    for (int64_t i = 0; i < state.range(0); ++i) {
      (void)bc.SubmitTransaction(Transaction::Make(
          sender, static_cast<uint64_t>(i), to, 1, 100000, CallPayload{}));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(bc.ProduceBlock(validator, ++now));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NativeTransferBlock)->Arg(10)->Arg(100);

void BM_StateRoot(benchmark::State& state) {
  // Args: {accounts, incremental}. Each iteration credits 256 random
  // accounts, untimed, then times WorldState::Digest(): on a state whose
  // root cache is current up to those writes (incremental = 1), or on a
  // copy that never computed a root (0, the from-scratch cost).
  using namespace chain;
  common::Rng rng(9);
  WorldState base;
  std::vector<Address> addrs;
  for (int64_t i = 0; i < state.range(0); ++i) {
    addrs.push_back(rng.NextBytes(kAddressSize));
    (void)base.Credit(addrs.back(), 1'000);
  }
  const bool incremental = state.range(1) == 1;
  WorldState target = base;
  if (incremental) (void)target.Digest();
  for (auto _ : state) {
    state.PauseTiming();
    if (!incremental) target = base;
    for (int i = 0; i < 256; ++i) {
      (void)target.Credit(addrs[rng.NextU64(addrs.size())], 1);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(target.Digest());
  }
}
BENCHMARK(BM_StateRoot)
    ->Args({1'000, 0})
    ->Args({1'000, 1})
    ->Args({100'000, 0})
    ->Args({100'000, 1})
    ->Unit(benchmark::kMicrosecond);

// --- pds2::obs primitives ---------------------------------------------------

void BM_ObsDisabledMacro(benchmark::State& state) {
  // The cost every instrumented hot path pays while metrics are off: one
  // relaxed atomic load plus a never-taken branch.
  obs::SetMetricsEnabled(false);
  for (auto _ : state) {
    PDS2_M_COUNT("bench.obs.disabled_probe", 1);
  }
}
BENCHMARK(BM_ObsDisabledMacro);

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::SetMetricsEnabled(true);
  for (auto _ : state) {
    PDS2_M_COUNT("bench.obs.counter_probe", 1);
  }
  obs::SetMetricsEnabled(false);
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::SetMetricsEnabled(true);
  uint64_t value = 1;
  for (auto _ : state) {
    PDS2_M_OBSERVE("bench.obs.hist_probe", value);
    value = value * 2862933555777941757ULL + 3037000493ULL;  // cheap lcg
  }
  obs::SetMetricsEnabled(false);
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsScopedSpan(benchmark::State& state) {
  obs::SetTracingEnabled(true);
  for (auto _ : state) {
    PDS2_TRACE_SPAN("bench.obs.span_probe");
  }
  obs::SetTracingEnabled(false);
  obs::Tracer::Global().Reset();
}
BENCHMARK(BM_ObsScopedSpan)->Iterations(1 << 16);

// --- Observability overhead report (BENCH_observability.json) ---------------

// One timed ApplyExternalBlock of a 100-transfer block on a fresh replica
// (so the signature cache is cold and validation does full work).
double TimedBlockApplyUs(const chain::Block& block,
                         const crypto::SigningKey& validator,
                         const chain::Address& sender_addr) {
  chain::Blockchain replica({validator.PublicKey()},
                            chain::ContractRegistry::CreateDefault());
  (void)replica.CreditGenesis(sender_addr, 1'000'000'000'000ULL);
  pds2::bench::Timer timer;
  const common::Status status = replica.ApplyExternalBlock(block);
  const double us = timer.ElapsedUs();
  if (!status.ok()) {
    std::fprintf(stderr, "overhead bench: block apply failed: %s\n",
                 status.ToString().c_str());
  }
  return us;
}

bool WriteObservabilityReport() {
  using namespace chain;
  constexpr int kTrials = 31;
  constexpr int kTxs = 100;

  // Per-macro disabled-path cost, measured directly.
  obs::SetMetricsEnabled(false);
  obs::SetTracingEnabled(false);
  constexpr uint64_t kProbeIters = 1 << 24;
  pds2::bench::Timer probe;
  for (uint64_t i = 0; i < kProbeIters; ++i) {
    PDS2_M_COUNT("bench.obs.report_probe", 1);
  }
  // No benchmark::DoNotOptimize on this double: under GCC its "+m,r"
  // constraint handed back a corrupted value (it read ~1e-314). The value
  // is used below, so nothing needs protecting.
  const double probe_elapsed_us = probe.ElapsedUs();
  const double disabled_macro_ns =
      probe_elapsed_us * 1000.0 / static_cast<double>(kProbeIters);

  // A 100-transfer block, produced once, then replayed onto fresh replicas.
  crypto::SigningKey validator =
      crypto::SigningKey::FromSeed(common::ToBytes("obs-bench-v"));
  crypto::SigningKey sender =
      crypto::SigningKey::FromSeed(common::ToBytes("obs-bench-s"));
  const Address sender_addr = AddressFromPublicKey(sender.PublicKey());
  const Address to(kAddressSize, 7);
  Blockchain producer({validator.PublicKey()},
                      ContractRegistry::CreateDefault());
  (void)producer.CreditGenesis(sender_addr, 1'000'000'000'000ULL);
  for (int i = 0; i < kTxs; ++i) {
    (void)producer.SubmitTransaction(Transaction::Make(
        sender, static_cast<uint64_t>(i), to, 1, 100000, CallPayload{}));
  }
  auto block = producer.ProduceBlock(validator, 1);
  pds2::bench::Require(block.ok(), "overhead bench: produce failed: " +
                                       block.status().ToString());

  // How many instrumentation sites one apply actually crosses: run one
  // instrumented apply against a zeroed registry and sum the deltas.
  obs::SetMetricsEnabled(true);
  obs::Registry::Global().ResetValues();
  (void)TimedBlockApplyUs(*block, validator, sender_addr);
  const obs::Snapshot snapshot = obs::Registry::Global().TakeSnapshot();
  double macro_hits = 0;
  for (const auto& [name, value] : snapshot.counters) {
    // Counter macros add arbitrary deltas (gas); count sites, not units.
    macro_hits += (name == "chain.gas_used")
                      ? static_cast<double>(kTxs)
                      : static_cast<double>(std::min<uint64_t>(value, kTxs));
  }
  for (const auto& [name, summary] : snapshot.histograms) {
    macro_hits += static_cast<double>(summary.count);
  }
  obs::SetMetricsEnabled(false);

  // Enabled-vs-disabled over fresh replicas, paired per trial
  // (bench::PairedOverhead); the arm that runs first alternates.
  std::vector<double> disabled_us, enabled_us;
  for (int t = 0; t < kTrials; ++t) {
    for (int k = 0; k < 2; ++k) {
      const bool enabled = (t + k) % 2 == 1;
      obs::SetMetricsEnabled(enabled);
      (enabled ? enabled_us : disabled_us)
          .push_back(TimedBlockApplyUs(*block, validator, sender_addr));
    }
  }
  obs::SetMetricsEnabled(false);
  const double median_disabled_us = pds2::bench::Median(disabled_us);
  const double median_enabled_us = pds2::bench::Median(enabled_us);

  // The disabled path differs from a PDS2_METRICS=0 build by `macro_hits`
  // flag checks per apply; that product over the apply time is the
  // disabled-path overhead (the acceptance budget is < 2%).
  const double disabled_overhead_pct =
      median_disabled_us <= 0.0
          ? 0.0
          : macro_hits * disabled_macro_ns / 1000.0 / median_disabled_us *
                100.0;
  const pds2::bench::Overhead enabled_overhead =
      pds2::bench::PairedOverhead(disabled_us, enabled_us);

  const pds2::bench::Json section =
      pds2::bench::Json()
          .Add("block_txs", kTxs)
          .Add("trials", kTrials)
          .Add("disabled_macro_ns", disabled_macro_ns)
          .Add("macro_sites_per_block_apply", macro_hits)
          .Add("block_apply_median_us_metrics_disabled", median_disabled_us)
          .Add("block_apply_median_us_metrics_enabled", median_enabled_us)
          .Add("disabled_path_overhead_pct", disabled_overhead_pct)
          .AddOverhead("enabled_path_overhead_pct", enabled_overhead)
          .Add("budget_pct", 2.0);
  std::printf(
      "\nobservability overhead: disabled macro %.2f ns, %.0f sites/apply, "
      "apply median %.0f us -> disabled-path overhead %.4f%% (budget 2%%); "
      "enabled delta %.2f%% (resolution %.2f%%)\n",
      disabled_macro_ns, macro_hits, median_disabled_us, disabled_overhead_pct,
      enabled_overhead.pct, enabled_overhead.resolution_pct);
  return pds2::bench::WriteReportSection("BENCH_observability.json",
                                         "block_validation_overhead", section);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return WriteObservabilityReport() ? 0 : 1;
}
