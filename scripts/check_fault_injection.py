#!/usr/bin/env python3
"""CI gate for the failpoint subsystem and the degraded-mode contract.

Iterates every failpoint `cwm_run --list-failpoints` reports and proves,
for each one, that injecting the fault:

  * never crashes or fails a run (exit status stays 0, the server stays
    alive);
  * never changes results — sweep JSONL and serve response payloads stay
    byte-identical to a healthy run (timing fields and the `degraded`
    flag excluded by contract);
  * is visible — the degraded/io-error counters in --metrics are
    nonzero, so operators can tell a self-healed run from a healthy one.

Store/cache sites run under an unlimited `error` policy across a cold
and a warm sweep (the degraded paths must hold up under *every* fault,
not just the first). Serve transport sites use `1*error`: an unlimited
accept/send fault would starve the socket forever by design, which is a
liveness property the server cannot (and should not) paper over.

`store.delta.validate` guards opening a `.cwd` delta log, which no sweep
does. Its case drives `cwm_data gen-delta` + `cwm_data patch` (the
`cwm_data` binary beside `cwm_run`) and asserts the site's own contract:
the armed patch exits non-zero with a clean status message and no
signal, writes no output graph and leaves the base graph byte-identical,
and the healthy patch succeeds.

Usage:
  check_fault_injection.py ./build/cwm_run ./build/cwm_serve
      [--scenario smoke-tiny]
"""
import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SERVE_REQUEST = {
    "id": "fi",
    "graph": "fi",
    "algo": "SeqGRD-NM",
    "budgets": [3],
    "seed": 7,
    "sims": 20,
    "eval_sims": 24,
}

# Counters that prove a degradation was recorded, by site prefix.
DEGRADED_COUNTERS = ("store.degraded.events", "cache.quarantined")
SERVE_COUNTERS = ("serve.io_errors", "serve.rejected")


def clean_env():
    env = dict(os.environ)
    env.pop("CWM_FAILPOINTS", None)
    env.pop("CWM_CACHE_DIR", None)
    return env


def run_sweep(cwm_run, scenario, cache_dir, out, metrics, failpoints=None):
    env = clean_env()
    if failpoints:
        env["CWM_FAILPOINTS"] = failpoints
    proc = subprocess.run(
        [cwm_run, scenario, "--cache-dir", str(cache_dir), "--quiet",
         "--out", str(out), "--metrics", str(metrics)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"FAIL: cwm_run exited {proc.returncode} with "
            f"CWM_FAILPOINTS={failpoints!r}\n{proc.stderr}")
    return Path(out).read_bytes()


def counters_of(metrics_path):
    with open(metrics_path) as fh:
        return json.load(fh).get("counters", {})


def check_store_site(cwm_run, scenario, healthy, site, workdir):
    """Unlimited errors at `site` across a cold and a warm sweep."""
    cache = workdir / f"cache_{site}"
    seen = {}
    for phase in ("cold", "warm"):
        out = workdir / f"{site}.{phase}.jsonl"
        metrics = workdir / f"{site}.{phase}.metrics.json"
        got = run_sweep(cwm_run, scenario, cache, out, metrics,
                        failpoints=f"{site}=error")
        if got != healthy:
            raise SystemExit(
                f"FAIL: {site} ({phase}): degraded sweep output differs "
                f"from the healthy run — the degraded path changed "
                f"results")
        for name, value in counters_of(metrics).items():
            seen[name] = seen.get(name, 0) + value
    if not any(seen.get(name, 0) > 0 for name in DEGRADED_COUNTERS):
        raise SystemExit(
            f"FAIL: {site}: no degraded event was counted "
            f"({', '.join(DEGRADED_COUNTERS)} all zero) — the fault was "
            f"silently absorbed or the site never fired")
    print(f"ok  {site}: byte-identical, "
          f"degraded events={seen.get('store.degraded.events', 0)}")


def run_data(cwm_data, args, failpoints=None):
    env = clean_env()
    if failpoints:
        env["CWM_FAILPOINTS"] = failpoints
    return subprocess.run([cwm_data, *map(str, args)], env=env,
                          capture_output=True, text=True)


def check_delta_site(cwm_data, site, workdir):
    """An armed `.cwd` open rejects the delta; the base graph survives."""
    edges = workdir / "delta_base.txt"
    edges.write_text("".join(f"{u} {(u * 7 + k) % 80} 0.2\n"
                             for u in range(80) for k in (1, 3, 5)))
    base = workdir / "delta_base.cwg"
    log = workdir / "delta.cwd"
    out = workdir / "delta_out.cwg"
    for args in (["import", edges, "--out", base],
                 ["gen-delta", base, "--out", log, "--edits", 12,
                  "--seed", 3]):
        proc = run_data(cwm_data, args)
        if proc.returncode != 0:
            raise SystemExit(f"FAIL: {site}: setup `cwm_data {args[0]}` "
                             f"exited {proc.returncode}\n{proc.stderr}")
    base_bytes = base.read_bytes()

    proc = run_data(cwm_data, ["patch", base, "--delta", log, "--out", out],
                    failpoints=f"{site}=error")
    armed_exit = proc.returncode
    if proc.returncode <= 0:
        how = (f"died of signal {-proc.returncode}" if proc.returncode < 0
               else "succeeded")
        raise SystemExit(f"FAIL: {site}: armed patch {how}; it must exit "
                         f"non-zero with a status\n{proc.stderr}")
    if f"failpoint '{site}'" not in proc.stderr:
        raise SystemExit(f"FAIL: {site}: armed patch gave no clean status "
                         f"message\n{proc.stderr}")
    written = [p.name for p in workdir.iterdir()
               if p.name.startswith(out.name)]
    if written:
        raise SystemExit(f"FAIL: {site}: rejected patch wrote {written}")
    if base.read_bytes() != base_bytes:
        raise SystemExit(f"FAIL: {site}: the base graph changed")

    proc = run_data(cwm_data, ["patch", base, "--delta", log, "--out", out])
    if proc.returncode != 0 or not out.exists():
        raise SystemExit(f"FAIL: {site}: healthy patch failed "
                         f"(exit {proc.returncode})\n{proc.stderr}")
    print(f"ok  {site}: patch rejected cleanly (exit {armed_exit}), "
          f"base untouched, healthy patch applies")


def serve_config(scenario):
    return json.dumps({
        "port": 0,
        "workers": 2,
        "queue_capacity": 8,
        "graphs": [{"name": "fi", "scenario": scenario}],
    })


def oneshot_oracle(cwm_serve, config):
    proc = subprocess.run(
        [cwm_serve, "--config", config, "--oneshot",
         json.dumps(SERVE_REQUEST)],
        env=clean_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: --oneshot oracle failed: {proc.stderr}")
    return strip_volatile(json.loads(proc.stdout))


def strip_volatile(value):
    """Drops *_seconds and the `degraded` flag: both vary by contract."""
    if isinstance(value, dict):
        return {k: strip_volatile(v) for k, v in value.items()
                if not (k.endswith("_seconds") or k == "degraded")}
    if isinstance(value, list):
        return [strip_volatile(v) for v in value]
    return value


def check_serve_site(cwm_serve, config, oracle, site, workdir):
    """One injected fault at `site` while serving live requests."""
    metrics = workdir / f"{site}.serve.metrics.json"
    env = clean_env()
    env["CWM_FAILPOINTS"] = f"{site}=1*error"
    server = subprocess.Popen(
        [cwm_serve, "--config", config, "--quiet",
         "--metrics", str(metrics)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    try:
        banner = server.stdout.readline()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", banner)
        if not match:
            raise SystemExit(f"FAIL: {site}: bad banner {banner!r}")
        port = int(match.group(1))

        # Three tries: one response may legitimately be a structured
        # rejection (serve.queue_push surfaces as `overloaded`), but the
        # connection and server must survive and then serve correctly.
        ok_payloads = []
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=120) as sock:
            reader = sock.makefile("r", encoding="utf-8")
            for attempt in range(3):
                sock.sendall(
                    (json.dumps(SERVE_REQUEST) + "\n").encode())
                line = reader.readline()
                if not line:
                    raise SystemExit(
                        f"FAIL: {site}: connection died mid-injection")
                response = json.loads(line)
                if response.get("ok"):
                    ok_payloads.append(strip_volatile(response))
        if not ok_payloads:
            raise SystemExit(
                f"FAIL: {site}: no successful response in 3 attempts")
        for payload in ok_payloads:
            if payload != oracle:
                raise SystemExit(
                    f"FAIL: {site}: served payload differs from the "
                    f"--oneshot oracle\n  served: {payload}\n"
                    f"  oracle: {oracle}")
        if server.poll() is not None:
            raise SystemExit(f"FAIL: {site}: server exited mid-test")
    finally:
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=60)

    counters = counters_of(metrics)
    noted = {name: counters.get(name, 0) for name in SERVE_COUNTERS}
    if not any(noted.values()):
        raise SystemExit(
            f"FAIL: {site}: fault left no trace in {SERVE_COUNTERS}")
    print(f"ok  {site}: server alive, responses match oracle, {noted}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cwm_run", help="path to cwm_run")
    parser.add_argument("cwm_serve", help="path to cwm_serve")
    parser.add_argument("--scenario", default="smoke-tiny")
    args = parser.parse_args()

    listing = subprocess.run([args.cwm_run, "--list-failpoints"],
                             env=clean_env(), capture_output=True,
                             text=True)
    if listing.returncode != 0:
        raise SystemExit(f"FAIL: --list-failpoints: {listing.stderr}")
    sites = [line.strip() for line in listing.stdout.splitlines()
             if line.strip()]
    if len(sites) < 10:
        raise SystemExit(
            f"FAIL: only {len(sites)} registered failpoints — the "
            f"inventory looks truncated: {sites}")

    serve_sites = [s for s in sites if s.startswith("serve.")]
    store_sites = [s for s in sites if not s.startswith("serve.")]
    print(f"{len(sites)} failpoints "
          f"({len(store_sites)} store/cache, {len(serve_sites)} serve)")

    with tempfile.TemporaryDirectory(prefix="cwm_fault_") as tmp:
        workdir = Path(tmp)
        healthy = run_sweep(args.cwm_run, args.scenario,
                            workdir / "cache_healthy",
                            workdir / "healthy.jsonl",
                            workdir / "healthy.metrics.json")
        if counters_of(
                workdir / "healthy.metrics.json").get(
                    "store.degraded.events", 0) != 0:
            raise SystemExit(
                "FAIL: healthy baseline already counts degraded events")
        for site in store_sites:
            if site == "store.delta.validate":  # no sweep opens a .cwd
                check_delta_site(Path(args.cwm_run).with_name("cwm_data"),
                                 site, workdir)
            else:
                check_store_site(args.cwm_run, args.scenario, healthy, site,
                                 workdir)

        config = serve_config(args.scenario)
        oracle = oneshot_oracle(args.cwm_serve, config)
        for site in serve_sites:
            check_serve_site(args.cwm_serve, config, oracle, site,
                             workdir)

    print("PASS: every failpoint degrades cleanly and bit-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
