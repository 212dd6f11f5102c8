#!/usr/bin/env bash
# Capture the CLI outputs of one checkout, so that two checkouts can be
# compared byte for byte.
#
#   tools/capture.sh CHECKOUT OUTDIR
#
# Runs a fixed set of dasdoa commands with PYTHONPATH=CHECKOUT/src. Each
# command runs in its own directory OUTDIR/NAME and leaves there the files
# it writes, plus `stdout`, `stderr` and `exit` (its exit code). Commands
# name their files relatively, so the trees of two checkouts compare with
#
#   tools/capture.sh old out-old && tools/capture.sh new out-new
#   diff -r out-old out-new
#
# The set: simulate (tonal, propeller, CSV and impulsive records, the
# impulsive one also at alpha = 1, the Cauchy branch); estimate
# with every estimator on a snapshot record, and on a time record with and
# without --select-bins; btr with cbf (at frame hops that share snapshots
# and at 0.37 of a frame, which shares none), music, qspice and gnr2; bench
# table1-table4 and impulsive at --trials 2, each with --jobs 1 and 2; and
# inputs the CLI rejects (non-finite flags, propeller rates too large for a
# default sample count or a band-pass design, sample counts too large for
# numpy, propeller records shorter than one period of the band's lower
# edge, records whose header rate is not a positive finite number, time
# records without --spacing or with --frequency). BLAS
# runs on one thread unless the environment says otherwise. Takes a few
# minutes on a 2-vCPU host.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 2
fi
src="$(cd "$1" && pwd)/src"
out="$(mkdir -p "$2" && cd "$2" && pwd)"
if [ ! -d "$src/dasdoa" ]; then
    echo "$0: no src/dasdoa under $1" >&2
    exit 2
fi
export PYTHONPATH="$src"
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-1}"
PY="${PYTHON:-python3}"

# run NAME ARGS...: dasdoa ARGS in OUTDIR/NAME
run() {
    local name="$1"
    shift
    mkdir -p "$out/$name"
    (cd "$out/$name" && "$PY" -m dasdoa.cli "$@" >stdout 2>stderr
     echo $? >exit)
}

# with_rate SOURCE DEST RATE: a copy of a record with its header rate set
with_rate() {
    "$PY" - "$@" <<'EOF'
import re
import struct
import sys

source, dest, rate = sys.argv[1], sys.argv[2], float(sys.argv[3])
raw = open(source, "rb").read()
if source.endswith(".csv"):
    head, rest = raw.split(b"\n", 1)
    head = re.sub(rb"rate=\S+", b"rate=" + repr(rate).encode(), head)
    raw = head + b"\n" + rest
else:
    raw = raw[:20] + struct.pack("<d", rate) + raw[28:]
open(dest, "wb").write(raw)
EOF
}

# records
run sim-tonal simulate --out rec.bin --seed 3
run sim-tonal-csv simulate --out rec.csv --format csv --seed 4 --angles=-20,14.5
run sim-impulsive simulate --out rec.bin --seed 6 --noise impulsive-sas --alpha 1.5
run sim-impulsive-alpha1 simulate --out rec.bin --seed 8 --noise impulsive-sas \
    --alpha 1
PROP=(--kind propeller-broadband --angles 10,25 --rate 5120 --elements 12
      --spacing 1.25)
run sim-propeller simulate "${PROP[@]}" --samples 10240 --seed 5 --out rec.bin
run sim-propeller-csv simulate "${PROP[@]}" --samples 2048 --seed 7 --format csv \
    --out rec.csv

# narrowband estimates
SNAP=../sim-tonal/rec.bin
for est in cbf music spice qspice gnr2; do
    run "est-snap-$est" estimate --input "$SNAP" --frequency 3000 \
        --estimator "$est" --k 2 --out spec.csv
done
run est-snap-nok estimate --input "$SNAP" --frequency 3000 --estimator cbf
run est-snap-csv estimate --input ../sim-tonal-csv/rec.csv --format csv \
    --frequency 3000 --estimator qspice --k 2 --out spec.csv
run est-snap-impulsive estimate --input ../sim-impulsive/rec.bin --frequency 3000 \
    --estimator qspice --k 2 --out spec.csv

# broadband estimates
TIME=../sim-propeller/rec.bin
for est in cbf music spice qspice gnr2; do
    run "est-time-$est" estimate --input "$TIME" --estimator "$est" --k 2 \
        --spacing 1.25 --out spec.csv
    run "est-time-$est-select" estimate --input "$TIME" --estimator "$est" --k 2 \
        --spacing 1.25 --select-bins 20 --out spec.csv
done
run est-time-csv estimate --input ../sim-propeller-csv/rec.csv --format csv \
    --estimator cbf --k 2 --spacing 1.25 --out spec.csv

# bearing-time records
run btr-cbf btr --input "$TIME" --spacing 1.25 --out btr.csv
run btr-cbf-hop037 btr --input "$TIME" --spacing 1.25 --hop-fraction 0.37 \
    --out btr.csv
run btr-cbf-hop025 btr --input "$TIME" --spacing 1.25 --hop-fraction 0.25 \
    --out btr.csv
run btr-qspice-select btr --input "$TIME" --spacing 1.25 --estimator qspice --k 2 \
    --select-bins 8 --out btr.csv
run btr-music btr --input "$TIME" --spacing 1.25 --estimator music --k 2 \
    --select-bins 20 --out btr.csv
run btr-gnr2 btr --input "$TIME" --spacing 1.25 --estimator gnr2 --k 2 \
    --select-bins 20 --out btr.csv

# Monte Carlo sweeps
for preset in table1 table2 table3 table4 impulsive; do
    for jobs in 1 2; do
        run "bench-$preset-jobs$jobs" bench --preset "$preset" --trials 2 \
            --jobs "$jobs" --out table.csv
    done
done

# rejected inputs
run rej-sim-propeller-rate-inf simulate --kind propeller-broadband --rate inf \
    --samples 2048 --out rec.bin
run rej-sim-propeller-rate-1e308 simulate --kind propeller-broadband --rate 1e308 \
    --out rec.bin
run rej-sim-propeller-rate-1e300 simulate --kind propeller-broadband --rate 1e300 \
    --samples 2048 --out rec.bin
run rej-sim-propeller-rate-1e300-default simulate --kind propeller-broadband \
    --rate 1e300 --out rec.bin
run rej-sim-samples-1e23 simulate --samples 100000000000000000000000 --out rec.bin
run rej-sim-propeller-too-short simulate --kind propeller-broadband --rate 1e9 \
    --samples 2048 --out rec.bin
run rej-sim-rate-inf simulate --rate inf --out rec.bin
run rej-sim-rate-nan simulate --rate nan --out rec.bin
run rej-est-frequency-inf estimate --input "$SNAP" --frequency inf --spacing 0.25
run rej-btr-step-nan btr --input "$TIME" --step nan --out btr.csv
run rej-est-time-no-spacing estimate --input "$TIME" --estimator cbf --k 2
run rej-btr-no-spacing btr --input "$TIME" --out btr.csv
run rej-est-time-frequency estimate --input "$TIME" --spacing 1.25 --frequency 3000 \
    --estimator cbf --k 2
for rate in nan 0 -5120 inf; do
    dir="$out/rej-load-rate$rate"
    mkdir -p "$dir"
    with_rate "$out/sim-propeller/rec.bin" "$dir/rec.bin" "$rate"
    with_rate "$out/sim-propeller-csv/rec.csv" "$dir/rec.csv" "$rate"
    run "rej-load-rate$rate/bin" estimate --input ../rec.bin --estimator cbf --k 2 \
        --spacing 1.25
    run "rej-load-rate$rate/csv" estimate --input ../rec.csv --format csv \
        --estimator cbf --k 2 --spacing 1.25
done
echo "captured $(find "$out" -name exit | wc -l) commands into $out"
