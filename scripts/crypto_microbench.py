#!/usr/bin/env python3
"""Prints the crypto microbench table: public-key ops, seal and kernels.

Runs the crypto benchmarks of bench_micro and prints one markdown row per
operation with its median real time over the repetitions:

  python3 scripts/crypto_microbench.py [--bench build/bench/bench_micro]
                                       [--repetitions 5]

bench_micro also writes its BENCH_observability.json section after the
benchmarks; the run happens in a temporary directory so no checked-in
report is touched. A row whose benchmark the binary lacks (an older
build) prints "n/a". Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# (benchmark name, table label), in table order.
ROWS = (
    ("BM_SchnorrSign", "`SigningKey::Sign`"),
    ("BM_SchnorrVerify", "`VerifySignature`"),
    ("BM_SchnorrVerifyBatchParallel/64/1",
     "`VerifySignature` x 64 on a 1-thread pool"),
    ("BM_SharedSecret", "`SharedSecret`"),
    ("BM_KeyFromSeed", "key generation (`FromSeed`)"),
    ("BM_AuthCipherSeal/65536", "`AuthCipher::Seal`, 64 KiB"),
    ("BM_Sha256/65536", "SHA-256, 64 KiB"),
    ("BM_Sha256Compress/dispatched:0/blocks:1",
     "SHA-256 compression, portable, 1 block"),
    ("BM_Sha256Compress/dispatched:1/blocks:1",
     "SHA-256 compression, dispatched, 1 block"),
    ("BM_Sha256Compress/dispatched:0/blocks:1024",
     "SHA-256 compression, portable, 1024 blocks"),
    ("BM_Sha256Compress/dispatched:1/blocks:1024",
     "SHA-256 compression, dispatched, 1024 blocks"),
    ("BM_FieldMul", "`Fe25519::Mul`"),
    ("BM_FieldSquare", "`Fe25519::Square`"),
    ("BM_PointDouble", "`EdPoint::Double`"),
    ("BM_PointAddCached", "`EdPoint::Add`, cached addend"),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="build/bench/bench_micro")
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args()
    bench = os.path.abspath(args.bench)
    names = "|".join(name for name, _ in ROWS)
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run(
            [bench, f"--benchmark_filter=^({names})$",
             f"--benchmark_repetitions={args.repetitions}",
             "--benchmark_report_aggregates_only=true",
             "--benchmark_format=json"],
            cwd=tmp, capture_output=True, text=True, check=True).stdout
    # The JSON document is followed by the observability summary line.
    report, _ = json.JSONDecoder().raw_decode(out)
    # One repetition reports the run itself; more report their median.
    medians = {}
    for row in report["benchmarks"]:
        if row.get("aggregate_name", "median") == "median":
            scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0}[row["time_unit"]]
            medians[row["run_name"]] = row["real_time"] * scale
    if not medians:
        print("no benchmark matched", file=sys.stderr)
        return 1
    print("| operation | time |")
    print("|---|---|")
    for name, label in ROWS:
        if name not in medians:
            print(f"missing benchmark {name}", file=sys.stderr)
            print(f"| {label} | n/a |")
        elif medians[name] < 0.01:
            print(f"| {label} | {medians[name] * 1e6:.1f} ns |")
        else:
            print(f"| {label} | {medians[name]:.3f} ms |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
