#!/bin/sh
# Every workload, one after another: the end-to-end metrics (--trace 0),
# then the traced per-layer split (--trace 1).  Run from the repository
# root; the optional argument is the seed (default 1).
set -e
seed="${1:-1}"
for workload in iptv_failover hls_crowd iptv_scale; do
    python3 e2ebench/run.py --workload "$workload" --seed "$seed" --trace 0
    python3 e2ebench/run.py --workload "$workload" --seed "$seed" --trace 1
done
