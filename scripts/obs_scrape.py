#!/usr/bin/env python3
"""Scrape and validate a running cgn_observatoryd endpoint.

Usage:
    scripts/obs_scrape.py BASE_URL [--wait-done [--timeout S]]
                          [--campaign NAME] [--expect-ingest]
                          [--compare NAME=BENCH_JSON ...]

BASE_URL is the daemon root, e.g. http://127.0.0.1:9464 (the daemon prints
"observatory: listening on 127.0.0.1:PORT" at startup).

What it checks, in order:
  * --wait-done: poll GET /health until "status" is "complete" (the stream
    finished and ingest lag drained to 0), failing after --timeout seconds
    (default 300). With --campaign NAME it instead waits for the push
    campaign NAME to report done with zero lag under /health "push".
    Transient connection refusals (daemon still binding, or briefly
    between accept loops) are retried until the deadline;
  * GET /health is valid JSON with the expected top-level shape; when the
    push block is present its queue_depth must not exceed queue_capacity
    and every per-campaign lag must be non-negative (bounded-lag check);
  * GET /metrics is a well-formed Prometheus text exposition: every sample
    is preceded by its # TYPE line, histogram _bucket series are
    cumulative-monotone, carry an le="+Inf" bucket, and agree with their
    _count; the observatory's own gauges are present. --expect-ingest
    additionally requires the push-ingestion gauges
    (cgn_observatory_ingest_{queue_depth,shed_total,rejected_total,
    max_lag}) and a queue depth within the health-reported capacity;
  * GET /trace is valid JSON;
  * each --compare NAME=PATH: the observatory figure set NAME under GET
    /figures (or GET /figures/<campaign> with --campaign) must carry
    exactly the figures of the batch bench JSON at PATH (e.g.
    fig04_clusters=BENCH_fig04_clusters.json) — this is the
    streaming==batch acceptance bar, checked value-for-value.

Exit codes: 0 all checks pass, 1 a check failed, 2 bad input/unreachable.
"""

import json
import re
import sys
import time
import urllib.error
import urllib.request

DEFAULT_TIMEOUT_S = 300.0

HEALTH_KEYS = ("status", "uptime_s", "virtual_time_s", "ingest",
               "campaigns", "http_requests")

# One sample line: name, optional {labels}, value. Prometheus names as the
# registry emits them (cgn_ prefix, [a-zA-Z0-9_]).
SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
LE_RE = re.compile(r'le="([^"]+)"')


class CheckFailed(Exception):
    pass


def fetch(url, timeout=10.0, retries=3):
    """GET url, retrying transient connection refusals/resets a few times
    (an observatoryd that just announced its port may not have entered its
    accept loop yet; a feeder kill can race a scrape)."""
    last = None
    for attempt in range(retries + 1):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                return resp.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as e:
            last = e
            reason = getattr(e, "reason", e)
            transient = isinstance(reason, (ConnectionRefusedError,
                                            ConnectionResetError))
            if not transient or attempt == retries:
                break
            time.sleep(0.2)
    raise CheckFailed(f"{url}: unreachable ({last})")


def fetch_json(url):
    body = fetch(url)
    try:
        return json.loads(body)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"{url}: not valid JSON ({e.msg} at line {e.lineno})")


def wait_done(base, timeout_s, campaign=None):
    deadline = time.monotonic() + timeout_s
    what = (f"push campaign {campaign!r} done with lag 0" if campaign
            else "status=complete")
    while True:
        try:
            health = fetch_json(base + "/health")
            if campaign is None:
                if health.get("status") == "complete":
                    lag = health.get("ingest", {}).get("lag")
                    print(f"ok   /health: stream complete (ingest lag {lag})")
                    return
            else:
                ch = (health.get("push", {}).get("campaigns", {})
                      .get(campaign, {}))
                if ch.get("done") and ch.get("lag") == 0:
                    print(f"ok   /health: campaign {campaign!r} done "
                          f"({ch.get('ingested')} events, lag 0)")
                    return
        except CheckFailed:
            pass  # daemon may still be binding; keep polling until deadline
        if time.monotonic() > deadline:
            raise CheckFailed(f"/health did not reach {what} "
                              f"within {timeout_s}s")
        time.sleep(0.2)


def check_health(base, expect_ingest=False):
    health = fetch_json(base + "/health")
    missing = [k for k in HEALTH_KEYS if k not in health]
    if missing:
        raise CheckFailed(f"/health: missing keys {missing}")
    push = health.get("push")
    if expect_ingest and push is None:
        raise CheckFailed("/health: no \"push\" block (is the ingest "
                          "listener running?)")
    if push is not None:
        depth, cap = push.get("queue_depth"), push.get("queue_capacity")
        if depth is None or cap is None or depth > cap:
            raise CheckFailed(f"/health: push queue depth {depth} exceeds "
                              f"capacity {cap} — lag is not bounded")
        for key in ("shed_total", "rejected_total"):
            if not isinstance(push.get(key), int) or push[key] < 0:
                raise CheckFailed(f"/health: push.{key} missing or negative: "
                                  f"{push.get(key)!r}")
        for name, ch in push.get("campaigns", {}).items():
            lag = ch.get("lag")
            if not isinstance(lag, int) or lag < 0:
                raise CheckFailed(f"/health: campaign {name!r} lag broken: "
                                  f"{lag!r}")
        print(f"ok   /health: push queue {depth}/{cap}, "
              f"shed {push['shed_total']}, rejected {push['rejected_total']}, "
              f"{len(push.get('campaigns', {}))} push campaign(s)")
    print(f"ok   /health: shape valid (status={health['status']!r}, "
          f"{health['ingest']['ingested']} events ingested)")
    return health


def parse_exposition(text):
    """Return (samples, types): sample list [(name, labels, value)] and
    declared # TYPE map, validating line-level syntax as we go."""
    samples, types = [], {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("# HELP"):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                raise CheckFailed(f"/metrics:{lineno}: malformed TYPE line: "
                                  f"{line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            raise CheckFailed(f"/metrics:{lineno}: unknown comment {line!r}")
        m = SAMPLE_RE.match(line)
        if not m:
            raise CheckFailed(f"/metrics:{lineno}: malformed sample {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            samples.append((name, labels, float(value)))
        except ValueError:
            raise CheckFailed(f"/metrics:{lineno}: non-numeric value in "
                              f"{line!r}")
    return samples, types


def base_name(name):
    """Histogram child series resolve to their declared base metric."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check_metrics(base, expect_ingest=False):
    text = fetch(base + "/metrics")
    samples, types = parse_exposition(text)
    if not samples:
        raise CheckFailed("/metrics: no samples at all")

    for name, _, _ in samples:
        if name not in types and base_name(name) not in types:
            raise CheckFailed(f"/metrics: sample {name} has no # TYPE line")

    # Histogram invariants: buckets cumulative-monotone, +Inf present and
    # equal to _count.
    hist_names = [n for n, t in types.items() if t == "histogram"]
    for hist in hist_names:
        buckets = [(LE_RE.search(labels).group(1), value)
                   for name, labels, value in samples
                   if name == hist + "_bucket" and LE_RE.search(labels)]
        if not buckets:
            raise CheckFailed(f"/metrics: histogram {hist} has no buckets")
        if buckets[-1][0] != "+Inf":
            raise CheckFailed(f"/metrics: histogram {hist} lacks a trailing "
                              "le=\"+Inf\" bucket")
        values = [v for _, v in buckets]
        if any(b > a for b, a in zip(values, values[1:])):
            raise CheckFailed(f"/metrics: histogram {hist} buckets are not "
                              f"cumulative-monotone: {values}")
        counts = [v for name, _, v in samples if name == hist + "_count"]
        if not counts or counts[0] != values[-1]:
            raise CheckFailed(f"/metrics: histogram {hist} +Inf bucket "
                              f"{values[-1]} != _count {counts}")

    required = ["cgn_observatory_ingest_lag",
                "cgn_observatory_http_requests"]
    if expect_ingest:
        required += ["cgn_observatory_ingest_queue_depth",
                     "cgn_observatory_ingest_shed_total",
                     "cgn_observatory_ingest_rejected_total",
                     "cgn_observatory_ingest_max_lag"]
    for req in required:
        if not any(name == req for name, _, _ in samples):
            raise CheckFailed(f"/metrics: missing required sample {req}")
    if expect_ingest:
        by_name = {name: value for name, _, value in samples}
        for gauge in ("cgn_observatory_ingest_queue_depth",
                      "cgn_observatory_ingest_shed_total",
                      "cgn_observatory_ingest_rejected_total",
                      "cgn_observatory_ingest_max_lag"):
            if by_name[gauge] < 0:
                raise CheckFailed(f"/metrics: {gauge} is negative "
                                  f"({by_name[gauge]})")

    print(f"ok   /metrics: {len(samples)} samples, {len(types)} metrics "
          f"({len(hist_names)} histograms), exposition well-formed")


def check_compare(base, spec, campaign=None):
    name, _, path = spec.partition("=")
    if not path:
        raise CheckFailed(f"--compare {spec!r}: expected NAME=BENCH_JSON")
    figures_url = base + ("/figures/" + campaign if campaign else "/figures")
    figures_doc = fetch_json(figures_url)
    sets = figures_doc.get("figure_sets", {})
    if name not in sets:
        raise CheckFailed(f"/figures: no figure set {name!r} "
                          f"(have {sorted(sets)})")
    stream = sets[name].get("figures", {})
    try:
        with open(path) as f:
            batch = json.load(f).get("figures", {})
    except (OSError, json.JSONDecodeError) as e:
        raise CheckFailed(f"--compare {spec!r}: cannot load batch JSON ({e})")
    if stream != batch:
        diff = {k: (batch.get(k), stream.get(k))
                for k in sorted(set(batch) | set(stream))
                if batch.get(k) != stream.get(k)}
        raise CheckFailed(f"figure set {name!r} diverges from batch "
                          f"(batch, stream): {diff}")
    print(f"ok   /figures[{name}]: {len(stream)} figures identical to "
          f"batch {path}")


def main(argv):
    if len(argv) < 2 or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    base = argv[1].rstrip("/")
    compares, do_wait, timeout_s = [], False, DEFAULT_TIMEOUT_S
    campaign, expect_ingest = None, False
    i = 2
    while i < len(argv):
        arg = argv[i]
        if arg == "--wait-done":
            do_wait = True
        elif arg == "--campaign":
            i += 1
            if i >= len(argv):
                print("obs_scrape: --campaign needs a name", file=sys.stderr)
                return 2
            campaign = argv[i]
        elif arg == "--expect-ingest":
            expect_ingest = True
        elif arg == "--timeout":
            i += 1
            if i >= len(argv):
                print("obs_scrape: --timeout needs a value", file=sys.stderr)
                return 2
            timeout_s = float(argv[i])
        elif arg == "--compare":
            i += 1
            if i >= len(argv):
                print("obs_scrape: --compare needs NAME=PATH",
                      file=sys.stderr)
                return 2
            compares.append(argv[i])
        else:
            print(f"obs_scrape: unknown argument {arg!r}", file=sys.stderr)
            return 2
        i += 1

    if do_wait:
        wait_done(base, timeout_s, campaign)
    check_health(base, expect_ingest)
    check_metrics(base, expect_ingest)
    fetch_json(base + "/trace")
    print("ok   /trace: valid JSON")
    for spec in compares:
        check_compare(base, spec, campaign)
    print("obs_scrape: OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except CheckFailed as e:
        print(f"obs_scrape: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
