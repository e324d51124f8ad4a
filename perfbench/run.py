#!/usr/bin/env python3
"""Run one workload of the CloudMonatt end-to-end benchmark.

    python3 perfbench/run.py --workload attest_closed --seed 1 \\
        --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's src/ from source)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench, and runs
it from the repository root. Two binaries come from the same sources:

* perfbench_e2e, untraced: the end-to-end metrics (--trace 0);
* perfbench_traced, linked with -Wl,--wrap around each layer's
  exported functions: the per-layer metrics (--trace 1), plus a Chrome
  trace-event file next to the binaries.

With --trace 1 the run splits its seconds between the two binaries,
fails unless both produce the same report digest, and reports the
tracing overhead. Every binary run also checks that the digest at
pool width min(4, nproc) equals the one at width 1.

The last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics. Human-readable lines come before it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("sim_op_p50_ms", "ms", "lower"),
    ("sim_op_p99_ms", "ms", "lower"),
    ("verified_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def _per_layer():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in ("rsa_sign", "rsa_verify", "rsa_keygen", "modexp", "hmac"):
        out += [(f"crypto.{layer}.calls_per_op", "count"),
                (f"crypto.{layer}.self_us_per_op", "us")]
    for layer in ("sha256", "aes_ctr"):
        out += [(f"crypto.{layer}.bytes_per_op", "B"),
                (f"crypto.{layer}.self_us_per_op", "us")]
    out += [("crypto.rsa_keygen.setup_calls", "count"),
            ("net.datagrams_per_op", "count"),
            ("net.bytes_per_op", "B"),
            ("net.fault_drops_per_op", "count"),
            ("net.retransmits_per_op", "count"),
            ("net.channel.records_per_op", "count"),
            ("net.channel.self_us_per_op", "us"),
            ("net.handshake.calls_per_op", "count"),
            ("net.handshake.self_us_per_op", "us"),
            ("proto.codec.calls_per_op", "count"),
            ("proto.codec.self_us_per_op", "us"),
            ("tpm.quote.calls_per_op", "count"),
            ("tpm.quote.self_us_per_op", "us"),
            ("attestation.interpret.self_us_per_op", "us"),
            ("attestation.cert_cache.hit_ratio", "ratio"),
            ("attestation.degraded_frac", "ratio"),
            ("attestation.failed_tries_per_op", "count"),
            ("controller.forward_retries_per_op", "count"),
            ("controller.failovers_per_op", "count")]
    for entity in ("customer", "controller", "attestation", "pca", "server"):
        out.append((f"{entity}.recv.self_us_per_op", "us"))
    out += [("sim.kernel.events_per_op", "count"),
            ("sim.background.us_per_op", "us"),
            ("sim.journal.appends_per_op", "count"),
            ("sim.journal.syncs_per_op", "count"),
            ("sim.journal.bytes_per_op", "B"),
            ("sim.journal.self_us_per_op", "us"),
            ("sim.worker_pool.cpu_per_wall", "ratio"),
            ("trace.overhead_frac", "ratio")]
    return out


PER_LAYER = _per_layer()

WORKLOADS = ("attest_closed", "attest_open_fresh", "launch_replicated",
             "attest_lossy")

# Layers that must record calls on a workload (wrapper liveness): a
# layer that goes silent means a wrapper stopped seeing its function.
_EVERYWHERE = ["crypto.rsa_sign.calls_per_op", "crypto.rsa_verify.calls_per_op",
               "crypto.modexp.calls_per_op", "crypto.hmac.calls_per_op",
               "crypto.sha256.bytes_per_op", "crypto.aes_ctr.bytes_per_op",
               "net.channel.records_per_op", "proto.codec.calls_per_op",
               "tpm.quote.calls_per_op", "attestation.interpret.self_us_per_op",
               "sim.journal.appends_per_op", "sim.journal.syncs_per_op",
               "customer.recv.self_us_per_op", "controller.recv.self_us_per_op",
               "attestation.recv.self_us_per_op", "server.recv.self_us_per_op",
               "crypto.rsa_keygen.setup_calls", "sim.kernel.events_per_op"]
EXPECTED_LAYERS = {
    "attest_closed": _EVERYWHERE + ["crypto.rsa_keygen.calls_per_op"],
    "attest_open_fresh": _EVERYWHERE + ["crypto.rsa_keygen.calls_per_op",
                                        "pca.recv.self_us_per_op"],
    "launch_replicated": _EVERYWHERE + ["crypto.rsa_keygen.calls_per_op",
                                        "net.handshake.calls_per_op",
                                        "pca.recv.self_us_per_op"],
    "attest_lossy": _EVERYWHERE + ["net.fault_drops_per_op",
                                   "net.retransmits_per_op"],
}


def log(msg):
    print(msg, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "perfbench")


def build(out):
    """Configure (once) and build both binaries; False on failure."""
    if not os.path.isdir(os.path.join(HERE, "..", "src")):
        print("perfbench: no src/ next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr):
            return False
    cmd = ["cmake", "--build", out, "-j", jobs, "--target",
           "perfbench_e2e", "perfbench_traced"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def run_binary(path, args, seconds, trace_out=None):
    cmd = [path, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    env.pop("MONATT_THREADS", None)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(path)} exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(result, label):
    """Correctness problems of one binary run, as strings."""
    problems = [f"{label}: {e}" for e in result["errors"]]
    if result["digest"] != result["digest_width1"]:
        problems.append(f"{label}: digest differs between pool widths")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    e2e = os.path.join(out, "perfbench_e2e")
    traced = os.path.join(out, "perfbench_traced")

    if args.trace == 0:
        res = run_binary(e2e, args, args.seconds)
        problems = verdict(res, "untraced")
        wanted, source = END_TO_END, res["metrics"]
    else:
        half = args.seconds / 2
        plain = run_binary(e2e, args, half)
        trace_file = os.path.join(out, f"trace_{args.workload}.json")
        res = run_binary(traced, args, half, trace_file)
        problems = verdict(plain, "untraced") + verdict(res, "traced")
        if res["digest"] != plain["digest"]:
            problems.append("digest differs between traced and untraced")
        source = dict(res["metrics"])
        source["trace.overhead_frac"] = (
            plain["metrics"]["ops_per_s"] / res["metrics"]["ops_per_s"] - 1)
        for name in EXPECTED_LAYERS[args.workload]:
            if source.get(name, 0) <= 0:
                problems.append(f"layer {name} recorded nothing")
        wanted = [(n, u, None) for n, u in PER_LAYER]
        log(f"chrome trace: {trace_file}")

    log(f"workload {args.workload}  seed {args.seed}  "
        f"pool width {res['threads']} (nproc {os.cpu_count()})")
    log(f"report digest {res['digest']}")
    got = res["metrics"]
    log(f"ops attempted {res['attempted']}  failed {res['failed']}  "
        f"op time samples {int(got['samples'])}  "
        f"outcome samples {int(got['outcome_samples'])}  "
        f"degraded {got['attestation.degraded_frac']:.4f} per op")
    log(f"host speed {got['host.speed']:.3f} of the reference; raw wall: "
        f"setup {got['wall.setup_s']:.4f} s, {got['wall.ops_per_s']:.1f} "
        f"ops/s, op p50 {got['wall.op_p50_ms']:.3f} ms, "
        f"p99 {got['wall.op_p99_ms']:.3f} ms")
    metrics = {}
    for name, unit, _ in wanted:
        value = source[name]
        metrics[name] = {"value": value, "unit": unit}
        log(f"  {name:40s} {value:14.6g} {unit}")
    correct = not problems
    for p in problems:
        log(f"FAIL: {p}")
    log(f"correctness: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
