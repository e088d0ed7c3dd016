#!/usr/bin/env sh
# Argv hardening regression test: every malformed numeric token must make
# hbnet_cli print a diagnostic and exit nonzero -- never die on an uncaught
# std::stoul/std::stod exception (which exits 1 via the top-level handler
# but with an unhelpful "error: stoul" message) and never silently accept a
# partial token like "4x".
#
# Usage: test_cli_args.sh <path-to-hbnet_cli>
set -eu

cli=$1
fails=0

# expect_reject <description> <args...>: the command must exit nonzero and
# print something to stderr.
expect_reject() {
  desc=$1
  shift
  if "$cli" "$@" >/dev/null 2>/tmp/hbnet_cli_args_err.$$; then
    echo "FAIL: $desc: expected nonzero exit: $cli $*" >&2
    fails=$((fails + 1))
  elif ! [ -s /tmp/hbnet_cli_args_err.$$ ]; then
    echo "FAIL: $desc: rejected but no diagnostic on stderr: $cli $*" >&2
    fails=$((fails + 1))
  fi
  rm -f /tmp/hbnet_cli_args_err.$$
}

expect_reject "non-numeric m" info x 3
expect_reject "partial-token n" info 2 3x
expect_reject "negative m" info -2 3
expect_reject "empty n" info 2 ""
expect_reject "bad label id" label 2 3 12y
expect_reject "bad route src" route 2 3 0q 5
expect_reject "bad route dst" route 2 3 0 5q
expect_reject "bad disjoint src" disjoint 2 3 zz 5
expect_reject "bad sim rate" sim 2 3 --rate 0.05x
expect_reject "bad sim cycles" sim 2 3 --cycles 10e
expect_reject "bad sim seed" sim 2 3 --seed 1.5
expect_reject "bad sim threads" sim 2 3 --threads two
expect_reject "missing flag value" sim 2 3 --rate
expect_reject "bad analyze threads" analyze 2 3 --threads 4x
expect_reject "bad wormhole vcs" wormhole 2 3 --vcs x6
expect_reject "bad campaign rates" campaign 2 3 --rates 0.05x
expect_reject "bad campaign rate list" campaign 2 3 --rates 0.02,,0.05
expect_reject "bad campaign faults" campaign 2 3 --faults 0,2x
expect_reject "bad campaign trials" campaign 2 3 --trials -1
expect_reject "bad campaign model" campaign 2 3 --models bogus
expect_reject "bad campaign engine" campaign 2 3 --engine bogus
expect_reject "campaign rate out of range" campaign 2 3 --rates 1.5
expect_reject "wormhole campaign with events model" campaign 2 3 --engine wormhole --models events --faults 2
expect_reject "sf campaign with links model" campaign 2 3 --models links --faults 2
expect_reject "bad wormhole fault count" wormhole 2 3 --faults 3x
expect_reject "wormhole faults without adaptive policy" wormhole 2 3 --faults 2
expect_reject "wormhole link faults without adaptive policy" wormhole 2 3 --link-faults 2

# expect_diag <pattern> <description> <args...>: like expect_reject, and the
# diagnostic on stderr must contain <pattern> (fixed string).
expect_diag() {
  pattern=$1
  desc=$2
  shift 2
  if "$cli" "$@" >/dev/null 2>/tmp/hbnet_cli_args_err.$$; then
    echo "FAIL: $desc: expected nonzero exit: $cli $*" >&2
    fails=$((fails + 1))
  elif ! grep -qF -- "$pattern" /tmp/hbnet_cli_args_err.$$; then
    echo "FAIL: $desc: stderr lacks '$pattern': $cli $*" >&2
    fails=$((fails + 1))
  fi
  rm -f /tmp/hbnet_cli_args_err.$$
}

# One malformed value for every flag that takes one. Path-valued flags get a
# path in a directory that does not exist.
bad=/nonexistent-hbnet-dir/out
expect_diag "expected" "bad checkpoint blocks" analyze 1 3 --exact-connectivity --max-blocks 2q
expect_diag "cannot write checkpoint" "unwritable checkpoint" analyze 1 3 --exact-connectivity --checkpoint "$bad"
expect_diag "expected" "bad wormhole rate" wormhole 1 3 --rate fast
expect_diag "expected" "bad campaign cycles" campaign 1 3 --cycles 1e2
expect_diag "expected" "bad wormhole warmup" wormhole 1 3 --warmup -5
expect_diag "expected" "bad sim drain" sim 1 3 --drain 10x
expect_diag "expected" "bad campaign seed" campaign 1 3 --seed 0x10
expect_diag "expected" "bad sim pattern" sim 1 3 --pattern bit-complement
expect_diag "expected" "bad wormhole flits" wormhole 1 3 --flits ""
expect_diag "expected" "bad wormhole policy" wormhole 1 3 --policy escape
expect_diag "expected" "wormhole fault list" wormhole 1 3 --policy adaptive --vcs 7 --faults 1,2
expect_diag "expected" "bad shard count" sim 1 3 --shards four
expect_diag "expected" "bad link fault count" wormhole 1 3 --link-faults 1.5
expect_diag "cannot open" "unwritable trace" sim 1 3 --cycles 20 --trace-out "$bad"
expect_diag "cannot open" "unwritable links CSV" wormhole 1 3 --cycles 20 --links-csv "$bad"
expect_diag "expected" "bad campaign model list" campaign 1 3 --models random,
expect_diag "expected" "bad campaign engine case" campaign 1 3 --engine SF
expect_diag "cannot open" "unwritable campaign CSV" campaign 1 3 --cycles 20 --csv "$bad"
expect_diag "expected" "bad campaign threads" campaign 1 3 --threads -2
expect_diag "cannot open" "unwritable metrics" analyze 1 3 --exact-connectivity --metrics-out "$bad"
expect_diag "expected" "bad stream interval" sim 1 3 --stream-interval-ms 1.5
# The stream surfaces are best-effort observers: an unwritable path never
# fails (or changes) the run it watches, but it is reported on stderr --
# once per path (--stream-out F also writes F.prom), not once per snapshot.
err=/tmp/hbnet_cli_args_err.$$
for flag in --stream-out --prom-out; do
  if ! "$cli" sim 1 3 --cycles 20 "$flag" "$bad" >/dev/null 2>"$err"; then
    echo "FAIL: unwritable $flag must not fail the run" >&2
    fails=$((fails + 1))
  elif ! grep -qF -- "warning: cannot write" "$err" ||
      ! grep -qF -- "'$bad'" "$err" ||
      [ "$(sort "$err" | uniq -d)" != "" ]; then
    echo "FAIL: unwritable $flag must warn once per path on stderr" >&2
    fails=$((fails + 1))
  fi
  rm -f "$err"
done

# A flag the command does not use is an error naming the commands that do
# -- one command per flag. These were silently ignored (exit 0) before the
# flag table; e.g. `sim --faults 3` printed a fault-free run.
expect_diag "not used by sim" "sim with --faults" sim 2 3 --faults 3
expect_diag "not used by sim" "sim with --policy" sim 2 3 --policy adaptive
expect_diag "not used by sim" "sim with --vcs" sim 2 3 --vcs 7
expect_diag "not used by sim" "sim with --flits" sim 2 3 --flits 8
expect_diag "not used by sim" "sim with --link-faults" sim 2 3 --link-faults 2
expect_diag "not used by wormhole" "wormhole with --valiant" wormhole 1 3 --valiant
expect_diag "not used by wormhole" "wormhole with --shards" wormhole 1 3 --shards 4
expect_diag "not used by analyze" "checkpoint without the sweep" analyze 1 3 --checkpoint "$bad" --metrics-out "$bad"
expect_diag "not used by analyze" "metrics without the sweep" analyze 1 3 --metrics-out "$bad"
expect_diag "unknown option --sparsify" "removed --sparsify" analyze 1 3 --sparsify
expect_diag "unknown option --implicit" "removed --implicit" analyze 1 3 --exact-connectivity --implicit
expect_diag "unknown option --no-orbits" "removed --no-orbits" analyze 1 3 --exact-connectivity --no-orbits
expect_diag "needs a value" "analyze threads without a value" analyze 1 3 --threads
expect_diag "not used by sim" "sim with --audit" sim 1 3 --audit
expect_diag "not used by analyze --exact-connectivity" "sweep with --audit" analyze 1 3 --exact-connectivity --audit
expect_diag "not used by campaign" "campaign with --exact-connectivity" campaign 1 3 --exact-connectivity
expect_diag "not used by sim" "sim with --max-blocks" sim 1 3 --max-blocks 1
expect_diag "not used by campaign" "campaign with --rate" campaign 1 3 --rate 0.1
expect_diag "not used by analyze" "analyze with --cycles" analyze 1 3 --cycles 10
expect_diag "not used by campaign" "campaign with --warmup" campaign 1 3 --warmup 10
expect_diag "not used by analyze" "analyze with --drain" analyze 1 3 --drain 10
expect_diag "not used by analyze" "analyze with --seed" analyze 1 3 --seed 3
expect_diag "not used by campaign" "campaign with --pattern" campaign 1 3 --pattern uniform
expect_diag "not used by campaign" "campaign with --trace-out" campaign 1 3 --trace-out "$bad"
expect_diag "not used by analyze" "analyze with --links-csv" analyze 1 3 --links-csv "$bad"
expect_diag "not used by sim" "sim with --models" sim 1 3 --models random
expect_diag "not used by wormhole" "wormhole with --rates" wormhole 1 3 --rates 0.1
expect_diag "not used by sim" "sim with --trials" sim 1 3 --trials 2
expect_diag "not used by wormhole" "wormhole with --engine" wormhole 1 3 --engine sf
expect_diag "not used by sim" "sim with --csv" sim 1 3 --csv "$bad"
expect_diag "not used by wormhole" "wormhole with --threads" wormhole 1 3 --threads 2
expect_diag "not used by info" "info with --threads" info 1 3 --threads 2
expect_diag "not used by analyze" "analyze with --stream-out" analyze 1 3 --stream-out "$bad"
expect_diag "not used by info" "info with --prom-out" info 1 3 --prom-out "$bad"
expect_diag "not used by analyze" "analyze with --stream-interval-ms" analyze 1 3 --stream-interval-ms 50
expect_diag "not used by analyze" "analyze with --progress" analyze 1 3 --progress
expect_diag "unknown option" "route with a third id" route 1 3 0 5 7
if [ -e "$bad" ]; then
  echo "FAIL: a rejected command wrote $bad" >&2
  fails=$((fails + 1))
fi

# Well-formed commands must still pass.
if ! "$cli" info 2 3 >/dev/null; then
  echo "FAIL: well-formed 'info 2 3' should succeed" >&2
  fails=$((fails + 1))
fi

# The previously rejected fault-injecting wormhole campaign is now the
# supported path (adaptive policy + escape VC): it must succeed.
if ! "$cli" campaign 2 3 --engine wormhole --faults 2 --cycles 50 >/dev/null; then
  echo "FAIL: fault-injecting wormhole campaign should succeed" >&2
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails argv hardening case(s) failed" >&2
  exit 1
fi
echo "all argv hardening cases passed"
