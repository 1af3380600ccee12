#!/usr/bin/env bash
# CLI smoke: every mode in both schemes and every format, the same bytes
# twice, the documented exit codes, and no numpy (or other avoidable
# module) in a derive or verify run.  Run it from the root of the repo:
#
#     PYTHONWARNINGS=error bash tests/smoke.sh
set -euo pipefail
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
# the numpy-free check at the end must see imports at all: enumerate
# loads numpy through clusterport.floatpath, and -X importtime names both
PYTHONPATH=src python -X importtime -m clusterport enumerate --scheme 1 2> "$out/importtime" > /dev/null
for module in numpy clusterport.floatpath; do
  if ! grep -q "$module" "$out/importtime"; then
    echo "enumerate --scheme 1: -X importtime does not name $module" >&2
    exit 1
  fi
done
for scheme in 1 2; do
  for mode in enumerate sample; do
    PYTHONPATH=src python -m clusterport "$mode" --scheme "$scheme" > /dev/null
  done
  for fmt in json csv text; do
    PYTHONPATH=src python -m clusterport enumerate --scheme "$scheme" --format "$fmt" > /dev/null
    PYTHONPATH=src python -m clusterport sample --trials 3 --scheme "$scheme" --format "$fmt" > /dev/null
    PYTHONPATH=src python -m clusterport derive --scheme "$scheme" --format "$fmt" > /dev/null
    PYTHONPATH=src python -m clusterport verify --scheme "$scheme" --format "$fmt" > /dev/null
  done
done
# (the --coeffs runs are one-input runs, computed and formatted in Python floats)
for args in "enumerate --scheme 2 --seed 7" "sample --scheme 2 --seed 7" "verify --scheme 1" \
    "derive --scheme 2" "enumerate --scheme 2 --coeffs=0.5,-0.5,0.5j,-0.5j" \
    "sample --scheme 1 --coeffs -0.6,0.8"; do
  for fmt in json csv text; do
    for run in 1 2; do
      PYTHONPATH=src python -m clusterport $args --format "$fmt" --out "$out/run$run.$fmt"
    done
    cmp "$out/run1.$fmt" "$out/run2.$fmt"
  done
done
# unusable input and an unwritable or closed stdout exit 2, the documented code
code=0; PYTHONPATH=src python -m clusterport enumerate --scheme 1 --coeffs 1,1 > /dev/null || code=$?
test "$code" -eq 2
code=0; PYTHONPATH=src python -m clusterport enumerate --scheme 1 --coeffs nan,0 > /dev/null || code=$?
test "$code" -eq 2
code=0; PYTHONPATH=src python -m clusterport enumerate --scheme 1 --renormalize --coeffs 0,0 > /dev/null || code=$?
test "$code" -eq 2
# there is no fidelity tolerance to set: every run requires fidelity exactly 1
for mode in enumerate sample derive verify; do
  code=0; PYTHONPATH=src python -m clusterport "$mode" --scheme 1 --tol 0 > /dev/null 2> "$out/err" || code=$?
  test "$code" -eq 2
  grep -q "unrecognized argument: --tol" "$out/err"
done
# the input draw at the cap and at the widest seed gives the same bytes twice
# and passes, every fidelity exactly 1 (a nonzero exit fails the step)
for run in 1 2; do
  PYTHONPATH=src python -m clusterport enumerate --scheme 1 --random-inputs 10000 \
    --seed 18446744073709551615 --format csv --out "$out/cap$run.csv"
done
cmp "$out/cap1.csv" "$out/cap2.csv"
# a JSON report at the cap crosses INPUT_BLOCK and the row memo's _ROW_MEMO rows,
# its keys sliced from the value arrays and its states classified a block at a
# time: the same bytes twice through --out and once on stdout
cap7="enumerate --scheme 2 --random-inputs 10000 --seed 7 --format json"
for run in 1 2; do
  PYTHONPATH=src python -m clusterport $cap7 --out "$out/cap7-$run.json"
done
PYTHONPATH=src python -m clusterport $cap7 > "$out/cap7-stdout.json"
cmp "$out/cap7-1.json" "$out/cap7-2.json"
cmp "$out/cap7-1.json" "$out/cap7-stdout.json"
# all inputs come from one [seed, 0] stream: the first N inputs of a run are a
# run with N (a header and 16 rows an input), and sample draws input 0
PYTHONPATH=src python -m clusterport enumerate --scheme 2 --random-inputs 3 --seed 7 \
  --format csv --out "$out/three.csv"
PYTHONPATH=src python -m clusterport enumerate --scheme 2 --random-inputs 10000 --seed 7 \
  --format csv --out "$out/many.csv"
head -n 49 "$out/many.csv" | cmp - "$out/three.csv"
# one drawn input is computed in Python floats, two or more in numpy blocks:
# the same rows either way (a header and 16 rows)
for scheme in 1 2; do
  for count in 1 2; do
    PYTHONPATH=src python -m clusterport enumerate --scheme "$scheme" --random-inputs "$count" \
      --seed 7 --format csv --out "$out/inputs$count.csv"
  done
  head -n 17 "$out/inputs2.csv" | cmp "$out/inputs1.csv" -
done
PYTHONPATH=src python -m clusterport sample --scheme 2 --seed 7 --out "$out/sample.txt"
PYTHONPATH=src python -m clusterport enumerate --scheme 2 --seed 7 --out "$out/enumerate.txt"
test "$(grep '^input 0:' "$out/sample.txt")" = "$(grep '^input 0:' "$out/enumerate.txt")"
# a million trials cross many sample blocks: same bytes twice, and a pass
for scheme in 1 2; do
  for run in 1 2; do
    PYTHONPATH=src python -m clusterport sample --scheme "$scheme" --trials 1000000 \
      --seed 7 --format json --out "$out/million$run.json"
  done
  cmp "$out/million1.json" "$out/million2.json"
done
# trial counts around the sample block's edges, drawn and basis inputs: a pass,
# and the same bytes on stdout as through --out
block="$(PYTHONPATH=src python -c 'from clusterport.floatpath import SAMPLE_BLOCK; print(SAMPLE_BLOCK)')"
for trials in $((block - 1)) $((block + 1)) $((2 * block + 1)); do
  for input in "--scheme 1" "--scheme 1 --coeffs 0,1" "--scheme 2" "--scheme 2 --coeffs 0,0,1,0"; do
    PYTHONPATH=src python -m clusterport sample $input --trials "$trials" --seed 7 \
      --format json > "$out/edge-stdout.json"
    PYTHONPATH=src python -m clusterport sample $input --trials "$trials" --seed 7 \
      --format json --out "$out/edge-out.json"
    cmp "$out/edge-stdout.json" "$out/edge-out.json"
  done
done
# input counts around the input block and the emitters' summary block, both
# schemes and every format: the same bytes on stdout as through --out, and twice
sizes="$(PYTHONPATH=src python -c 'from clusterport.floatpath import INPUT_BLOCK as b
from clusterport.harness import _SUMMARY_BLOCK as s
print(b - 1, b, b + 1, s - 1, s, s + 1)')"
for count in $sizes; do
  for scheme in 1 2; do
    for fmt in json csv text; do
      args="enumerate --scheme $scheme --random-inputs $count --seed 7 --format $fmt"
      PYTHONPATH=src python -m clusterport $args > "$out/block-stdout.$fmt"
      PYTHONPATH=src python -m clusterport $args --out "$out/block-out.$fmt"
      cmp "$out/block-stdout.$fmt" "$out/block-out.$fmt"
      PYTHONPATH=src python -m clusterport $args --out "$out/block-again.$fmt"
      cmp "$out/block-out.$fmt" "$out/block-again.$fmt"
    done
  done
done
# a --coeffs list may start with a minus sign, written apart from the option
PYTHONPATH=src python -m clusterport enumerate --scheme 1 --coeffs -0.6,0.8 > /dev/null
# every basis input of each scheme, and an imaginary one, passes with every
# fidelity exactly 1: there the zero entries of the repaired maps meet zero amplitudes
for mode in enumerate sample; do
  for coeffs in 1,0 0,1 0,-1j; do
    PYTHONPATH=src python -m clusterport "$mode" --scheme 1 --coeffs "$coeffs" > /dev/null
  done
  for coeffs in 1,0,0,0 0,1,0,0 0,0,1,0 0,0,0,1 0,0,0,-1j; do
    PYTHONPATH=src python -m clusterport "$mode" --scheme 2 --coeffs "$coeffs" > /dev/null
  done
done
# the --random-inputs cap itself runs and passes; one more exits 2.
# Its report streams in many ~64 KB write runs, to stdout as to --out, in every
# format: CSV and text write each input's rows as one piece
for fmt in json csv text; do
  PYTHONPATH=src python -m clusterport enumerate --scheme 2 --random-inputs 10000 --format "$fmt" > "$out/cap-stdout.$fmt"
  PYTHONPATH=src python -m clusterport enumerate --scheme 2 --random-inputs 10000 --format "$fmt" --out "$out/cap-out.$fmt"
  cmp "$out/cap-stdout.$fmt" "$out/cap-out.$fmt"
done
code=0; PYTHONPATH=src python -m clusterport enumerate --scheme 2 --random-inputs 10001 > /dev/null || code=$?
test "$code" -eq 2
code=0; PYTHONPATH=src python -m clusterport enumerate --scheme 2 > /dev/full || code=$?
test "$code" -eq 2
code=0; PYTHONPATH=src python -m clusterport enumerate --scheme 2 --random-inputs 10000 > /dev/full || code=$?
test "$code" -eq 2
code=0; PYTHONPATH=src python -m clusterport derive --scheme 1 >&- || code=$?
test "$code" -eq 2
# derive and verify run on the numpy-free exact core: no numpy import, and
# none of csv, typing, dataclasses, inspect, pathlib, argparse, gettext,
# shutil or (in a text report) json and re; -S keeps a .pth file in
# site-packages from loading them
for scheme in 1 2; do
  for mode in derive verify; do
    PYTHONPATH=src python -S -X importtime -m clusterport "$mode" --scheme "$scheme" 2> "$out/importtime" > /dev/null
    if grep -q numpy "$out/importtime"; then
      echo "$mode --scheme $scheme imported numpy" >&2
      exit 1
    fi
    for module in csv typing dataclasses inspect pathlib json argparse gettext shutil re; do
      if grep -qw "$module" "$out/importtime"; then
        echo "$mode --scheme $scheme imported $module" >&2
        exit 1
      fi
    done
  done
done
