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
# impulsive one also at alpha = 1, the Cauchy branch, each noise kind with
# sigma2, gamma and noise_diag from one config, and each noise kind with
# the keys it reads from a config: sigma2 for uniform, noise_diag for
# nonuniform, gamma and alpha for impulsive); estimate
# with every estimator on a snapshot record, and on a time record with and
# without --select-bins, with --gnuplot, with an odd DFT length, and with
# the solver and refine keys from a config (qspice also with the solver
# keys alone, the keys it reads); cbf on a time record on a 0.25 deg grid
# (the default CBF guard) and with peak_guard from a config; cbf on a time
# record whose
# sample count leaves a partial half DFT length, binary and CSV; btr with cbf (at frame hops that share snapshots
# and at 0.37 of a frame, which shares none, and with the frame length and
# hop from a config), music, qspice and gnr2, with --gnuplot; btr with cbf
# on the non-uniform --offsets of the c06 pair array, on --offsets
# 0,1,...,11 (the bytes of the --spacing run) and endfire on a 0.25 deg
# grid, and cbf on a time record with the c06 --offsets; bench
# table1-table4 and impulsive at --trials 2, each with --jobs 1 and 2, and
# with --gnuplot; cable-sens with its defaults, with set flags and with a
# config; a missing input (exit 3); an estimator that resolves too few
# sources (exit 4); and
# inputs the CLI rejects (non-finite flags, propeller rates too large for a
# default sample count or a band-pass design, sample counts too large for
# numpy, propeller records shorter than one period of the band's lower
# edge, records whose header rate is not a positive finite number, records
# with a NaN sample or one channel, binary and CSV, time
# records without --spacing or with --frequency, bands that reach the DC bin
# or past Nyquist, propeller scenes with an unknown convention or an angle
# outside it, bench methods empty or repeated, a fractional snapshot
# sweep, an unknown bench noise kind, bench noise keys that the noise kind
# does not read, a bench cbf_guard below 0 or MUSIC with k not below M
# (each a configuration fault, not failed trials), a config with a
# repeated key, simulate with --alpha under uniform noise or with noise
# keys and --snr under no noise, simulate with powers whose samples
# overflow the stored float32, simulate with a source key that its kind
# does not read: a band or lines for tonal sources, freqs or a frequency
# for propeller ones, and lines of the wrong shape, and estimate and btr
# with a config key that the estimator does not read, or gnr2 with --step
# on a snapshot record, and btr with a k that cbf and qspice do not read
# without --select-bins, and grid steps below the grid's 1e-9 deg rounding
# for estimate, btr and a bench baseline, a grid step of 1e-9 deg, whose
# grid has more points than a grid may have, and a bench position-error
# sweep value below 0); a propeller record
# with lines from a config; gnr2 over a sector that its grid step
# does not divide; cbf on a 900,001-point grid (a step of 2e-4 deg), whose
# last point a running sum would put past 90 deg; and one-CPU twins (under
# `taskset -c 0`) of the gnr2 estimate on a time record, the gnr2 btr and
# the table1 bench at --jobs 1, whose files must equal their default
# runs'. BLAS
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

# run NAME ARGS...: dasdoa ARGS in OUTDIR/NAME, under the command $ON if set
run() {
    local name="$1"
    shift
    mkdir -p "$out/$name"
    (cd "$out/$name" && ${ON:-} "$PY" -m dasdoa.cli "$@" >stdout 2>stderr
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

# edited SOURCE DEST EDIT: a copy of a record with EDIT applied, "nan" (its
# first sample set to NaN) or "one-channel" (its first channel alone)
edited() {
    "$PY" - "$@" <<'EOF'
import struct
import sys

source, dest, edit = sys.argv[1:]
raw = open(source, "rb").read()
if source.endswith(".csv"):
    head, first, rest = raw.split(b"\n", 2)
    if edit == "nan":
        raw = b"\n".join((head, b"nan" + first[first.index(b","):], rest))
    else:
        raw = head.replace(head.split()[1], b"channels=1") + b"\n" + first + b"\n"
else:
    m, n = struct.unpack_from("<IQ", raw, 8)
    if edit == "nan":
        raw = raw[:29] + struct.pack("<f", float("nan")) + raw[33:]
    else:
        width = (len(raw) - 29) // (m * n)
        raw = raw[:8] + struct.pack("<I", 1) + raw[12:29 + n * width]
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
run sim-propeller-seed0 simulate "${PROP[@]}" --samples 10240 --out rec.bin
# 10300 samples: 40 half DFT lengths of 256 and 60 samples over
run sim-propeller-partial simulate "${PROP[@]}" --samples 10300 --seed 11 --out rec.bin
run sim-propeller-partial-csv simulate "${PROP[@]}" --samples 10300 --seed 11 \
    --format csv --out rec.csv
echo '{"lines": [[[200, 10], [400, 6]], [[300, 10]]]}' >"$out/lines.json"
run sim-propeller-lines simulate "${PROP[@]}" --samples 10240 --seed 12 \
    --config ../lines.json --out rec.bin

echo '{"sigma2": 2.5, "gamma": 0.5, "noise_diag": [12, 2.3, 20.5, 5.5, 11.1, 6.5, 2, 13.5, 0.8, 1.7, 13.6, 5.2]}' \
    >"$out/noise.json"
for noise in uniform-gaussian nonuniform-gaussian impulsive-sas; do
    run "sim-config-$noise" simulate --out rec.bin --seed 9 --noise "$noise" \
        --config ../noise.json
done
echo '{"sigma2": 2.5}' >"$out/noise-uniform-gaussian.json"
echo '{"noise_diag": [12, 2.3, 20.5, 5.5, 11.1, 6.5, 2, 13.5, 0.8, 1.7, 13.6, 5.2]}' \
    >"$out/noise-nonuniform-gaussian.json"
echo '{"gamma": 0.5, "alpha": 1.5}' >"$out/noise-impulsive-sas.json"
for noise in uniform-gaussian nonuniform-gaussian impulsive-sas; do
    run "sim-noise-$noise" simulate --out rec.bin --seed 9 --noise "$noise" \
        --config "../noise-$noise.json"
done

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

echo '{"r": 1.0, "q": 1.0, "max_iter": 200, "rel_tol": 1e-5, "initial_step": 2.0, "target_step": 0.1}' \
    >"$out/solver.json"
for est in qspice gnr2; do
    run "est-snap-$est-config" estimate --input "$SNAP" --frequency 3000 \
        --estimator "$est" --k 2 --config ../solver.json --out spec.csv
done
echo '{"r": 1.0, "q": 1.0, "max_iter": 200, "rel_tol": 1e-5}' >"$out/solver-keys.json"
run est-snap-qspice-solver-config estimate --input "$SNAP" --frequency 3000 \
    --estimator qspice --k 2 --config ../solver-keys.json --out spec.csv
run est-snap-gnuplot estimate --input "$SNAP" --frequency 3000 --estimator cbf \
    --k 2 --out spec.csv --gnuplot
# 900,001 angles, about 170 MB of steering matrix
run est-snap-cbf-step-2e-4 estimate --input "$SNAP" --frequency 3000 --estimator cbf \
    --k 2 --step 2e-4 --out spec.csv

# broadband estimates
TIME=../sim-propeller/rec.bin
for est in cbf music spice qspice gnr2; do
    run "est-time-$est" estimate --input "$TIME" --estimator "$est" --k 2 \
        --spacing 1.25 --out spec.csv
    run "est-time-$est-select" estimate --input "$TIME" --estimator "$est" --k 2 \
        --spacing 1.25 --select-bins 20 --out spec.csv
done
# a step of 0.7 does not divide the sector: it sets only gnr2's output grid
run est-time-gnr2-sector estimate --input "$TIME" --spacing 1.25 --estimator gnr2 \
    --k 1 --sector=0,10 --step 0.7
run est-time-csv estimate --input ../sim-propeller-csv/rec.csv --format csv \
    --estimator cbf --k 2 --spacing 1.25 --out spec.csv
run est-time-partial estimate --input ../sim-propeller-partial/rec.bin \
    --estimator cbf --k 2 --spacing 1.25 --out spec.csv
run est-time-partial-csv estimate --input ../sim-propeller-partial-csv/rec.csv \
    --format csv --estimator cbf --k 2 --spacing 1.25 --out spec.csv
run est-time-nfft511 estimate --input "$TIME" --estimator cbf --k 2 --spacing 1.25 \
    --n-fft 511 --out spec.csv

for est in qspice gnr2; do
    run "est-time-$est-config" estimate --input "$TIME" --estimator "$est" --k 2 \
        --spacing 1.25 --select-bins 20 --config ../solver.json --out spec.csv
done
run est-time-qspice-solver-config estimate --input "$TIME" --estimator qspice --k 2 \
    --spacing 1.25 --select-bins 20 --config ../solver-keys.json --out spec.csv
run est-time-gnuplot estimate --input "$TIME" --estimator cbf --k 2 --spacing 1.25 \
    --out spec.csv --gnuplot
# a fine grid, on which the default CBF guard could part two picks
run est-time-cbf-step025 estimate --input "$TIME" --estimator cbf --k 2 \
    --spacing 1.25 --step 0.25 --out spec.csv
echo '{"peak_guard": 20}' >"$out/peak-guard-20.json"
run est-time-cbf-peak-guard estimate --input "$TIME" --estimator cbf --k 2 \
    --spacing 1.25 --config ../peak-guard-20.json --out spec.csv

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

echo '{"frame_seconds": 0.75, "hop_fraction": 0.25}' >"$out/frames.json"
run btr-cbf-config btr --input "$TIME" --spacing 1.25 --config ../frames.json \
    --out btr.csv
run btr-cbf-gnuplot btr --input "$TIME" --spacing 1.25 --out btr.csv --gnuplot
PAIR_OFFSETS=0,1.9,3.5,5.3,7.85,10,11.8,14.1,16,17.7,20,22.0
run btr-cbf-offsets-pair btr --input "$TIME" --spacing 1.25 --offsets "$PAIR_OFFSETS" \
    --out btr.csv
run btr-cbf-offsets-uniform btr --input "$TIME" --spacing 1.25 \
    --offsets 0,1,2,3,4,5,6,7,8,9,10,11 --out btr.csv
run btr-cbf-endfire btr --input "$TIME" --spacing 1.25 --convention endfire \
    --sector 0,180 --step 0.25 --out btr.csv
run est-time-cbf-offsets-pair estimate --input "$TIME" --estimator cbf --k 2 \
    --spacing 1.25 --offsets "$PAIR_OFFSETS" --out spec.csv

# Monte Carlo sweeps
for preset in table1 table2 table3 table4 impulsive; do
    for jobs in 1 2; do
        run "bench-$preset-jobs$jobs" bench --preset "$preset" --trials 2 \
            --jobs "$jobs" --out table.csv
    done
done

# one-CPU twins: a stacked solve runs in pieces on the CPUs of the
# process's affinity, and its outputs must not depend on how many there are
ON="taskset -c 0" run est-time-gnr2-cpu0 estimate --input "$TIME" --estimator gnr2 \
    --k 2 --spacing 1.25 --out spec.csv
ON="taskset -c 0" run btr-gnr2-cpu0 btr --input "$TIME" --spacing 1.25 --estimator gnr2 \
    --k 2 --select-bins 20 --out btr.csv
ON="taskset -c 0" run bench-table1-jobs1-cpu0 bench --preset table1 --trials 2 --jobs 1 \
    --out table.csv

run bench-gnuplot bench --preset table1 --trials 1 --methods cbf,qspice \
    --sweep-values 9 --out table.csv --gnuplot

# cable sensitivity
run cable-default cable-sens
run cable-flags cable-sens --inner-radius 3e-3 --outer-radius 9e-3 --poisson 0.3 \
    --modulus 2e9 --p1 0.5 --p2 2 --index 1.45 --wavelength 1310e-9 \
    --wound-length 8 --cable-length 2
echo '{"p1": 0.25, "p2": 3.0, "wound_length": 5.0}' >"$out/cable.json"
run cable-config cable-sens --config ../cable.json

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
run rej-est-band-past-nyquist estimate --input "$TIME" --spacing 1.25 \
    --estimator cbf --k 2 --band 2000,3000
run rej-est-band-dc estimate --input "$TIME" --spacing 1.25 --estimator cbf --k 2 \
    --band 0,100 --n-fft 64
echo '{"convention": "sideways"}' >"$out/sideways.json"
run rej-sim-propeller-convention simulate "${PROP[@]}" --samples 2048 \
    --config ../sideways.json --out rec.bin
run rej-sim-propeller-angle simulate --kind propeller-broadband --angles 120 \
    --samples 2048 --out rec.bin
BENCH=(bench --trials 1 --sweep-values 9 --out table.csv --timing-out t.csv)
run rej-bench-methods-empty "${BENCH[@]}" --preset table1 --methods ""
run rej-bench-methods-repeated "${BENCH[@]}" --preset table1 --methods cbf,cbf
run rej-bench-sweep-fractional "${BENCH[@]}" --preset table1-snapshots --methods cbf \
    --sweep-values 30.7
echo '{"noise": "bogus"}' >"$out/bogus-noise.json"
# no --timing-out: a version that accepts this config writes wall-clock seconds
run rej-bench-noise-unknown bench --preset table1 --trials 1 --methods cbf \
    --sweep-values 9 --config ../bogus-noise.json --out table.csv
echo '{"noise_diag": [12, 2.3, 20.5, 5.5, 11.1, 6.5, 2, 13.5, 0.8, 1.7, 13.6, 5.2], "alpha": 0.5}' \
    >"$out/ignored-noise-keys.json"
run rej-bench-noise-keys bench --preset table1 --trials 2 --methods cbf,qspice \
    --sweep-values 9 --config ../ignored-noise-keys.json --out table.csv
# configuration faults inside a trial: a version that counts them as
# failed trials writes a table of shortfalls
echo '{"cbf_guard": -1}' >"$out/cbf-guard.json"
run rej-bench-cbf-guard bench --preset table1 --trials 1 --methods cbf \
    --sweep-values 9 --config ../cbf-guard.json --out table.csv
echo '{"n_elements": 2}' >"$out/two-elements.json"
run rej-bench-music-k bench --preset table1 --trials 1 --methods music \
    --sweep-values 9 --config ../two-elements.json --out table.csv
echo '{"trials": 1, "trials": 3}' >"$out/duplicate-key.json"
run rej-config-duplicate-key bench --preset table1 --methods cbf --sweep-values 9 \
    --config ../duplicate-key.json --out table.csv
run rej-sim-noise-keys simulate --out rec.bin --seed 3 --alpha 1.5
run rej-sim-noise-none-keys simulate --out rec.bin --seed 3 --noise none --alpha 1.5 \
    --snr 3
run rej-sim-powers-overflow simulate --out rec.bin --seed 3 --powers 1e80,1
# source keys the kind does not read: a version that ignores them writes
# the record of the same run without them
run rej-sim-tonal-band simulate --out rec.bin --seed 1 --kind tonal --band 100,900
echo '{"lines": [[[200, 10]], [[300, 10]]]}' >"$out/tonal-lines.json"
run rej-sim-tonal-lines simulate --out rec.bin --seed 1 --config ../tonal-lines.json
PROP_KEYS=(--kind propeller-broadband --rate 5120 --samples 10240 --seed 1)
run rej-sim-propeller-freqs simulate "${PROP_KEYS[@]}" --freqs 300 --out rec.bin
run rej-sim-propeller-frequency simulate "${PROP_KEYS[@]}" --frequency 2500 \
    --out rec.bin
echo '{"lines": [5]}' >"$out/lines-shape.json"
run rej-sim-lines-shape simulate "${PROP[@]}" --samples 10240 --seed 12 \
    --config ../lines-shape.json --out rec.bin
# config keys the estimator does not read: a version that ignores them
# writes the output of the same run without them (est-snap-*, btr-cbf,
# btr-music)
echo '{"r": 2.0, "q": 1.5}' >"$out/rq.json"
echo '{"max_iter": 1, "initial_step": 5.0, "target_step": 4.0}' >"$out/solver-unread.json"
echo '{"peak_guard": 30.0}' >"$out/peak-guard.json"
for est in spice music; do
    run "rej-est-$est-rq" estimate --input "$SNAP" --frequency 3000 \
        --estimator "$est" --k 2 --config ../rq.json --out spec.csv
done
run rej-est-cbf-solver-keys estimate --input "$SNAP" --frequency 3000 \
    --estimator cbf --k 2 --config ../solver-unread.json --out spec.csv
run rej-est-qspice-peak-guard estimate --input "$SNAP" --frequency 3000 \
    --estimator qspice --k 2 --config ../peak-guard.json --out spec.csv
run rej-btr-cbf-rq btr --input "$TIME" --spacing 1.25 --config ../rq.json \
    --out btr.csv
run rej-btr-music-solver-keys btr --input "$TIME" --spacing 1.25 --estimator music \
    --k 2 --select-bins 20 --config ../solver-unread.json --out btr.csv
# btr writes no picks: without --select-bins, cbf and qspice read no k
for est in cbf qspice; do
    run "rej-btr-$est-k" btr --input "$TIME" --spacing 1.25 --estimator "$est" --k 2 \
        --out btr.csv
done
# narrowband gnr2 refines from initial_step: its step sets nothing
run rej-est-snap-gnr2-step estimate --input "$SNAP" --frequency 3000 \
    --estimator gnr2 --k 2 --step 0.3 --out spec.csv
# grid steps finer than the grid's 1e-9 deg rounding: a version without the
# check fails in numpy, which refuses the grid's size or its allocation
run rej-est-step-tiny estimate --input "$SNAP" --frequency 3000 --k 2 --step 1e-10 \
    --out spec.csv
# a grid of 1.8e11 points: a version without the bound on its size fails
# in numpy's allocation
run rej-est-step-1e-9 estimate --input "$SNAP" --frequency 3000 --k 2 --step 1e-9 \
    --out spec.csv
run rej-btr-step-tiny btr --input "$TIME" --spacing 1.25 --step 1e-300 --out btr.csv
echo '{"baseline_step": 1e-300}' >"$out/baseline-step-tiny.json"
run rej-bench-baseline-step-tiny bench --preset table1 --trials 1 --methods cbf \
    --sweep-values 9 --config ../baseline-step-tiny.json --out table.csv
# a version without the check runs the sweep with no position error
run rej-bench-pos-error-negative bench --preset table2 --trials 1 --methods cbf \
    --sweep-values=-0.1 --out table.csv
run rej-est-input-missing estimate --input ../no-such-record.bin --frequency 3000 \
    --estimator cbf --k 2
# gnr2 on 8 selected bins resolves 1 of the 2 sources of this record
run rej-est-gnr2-shortfall estimate --input ../sim-propeller-seed0/rec.bin \
    --estimator gnr2 --k 2 --spacing 1.25 --select-bins 8
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
for edit in nan one-channel; do
    dir="$out/rej-load-$edit"
    mkdir -p "$dir"
    edited "$out/sim-tonal/rec.bin" "$dir/rec.bin" "$edit"
    edited "$out/sim-tonal-csv/rec.csv" "$dir/rec.csv" "$edit"
    run "rej-load-$edit/bin" estimate --input ../rec.bin --frequency 3000 \
        --estimator cbf --k 2
    run "rej-load-$edit/csv" estimate --input ../rec.csv --format csv \
        --frequency 3000 --estimator cbf --k 2
done
echo "captured $(find "$out" -name exit | wc -l) commands into $out"
