#!/bin/sh
# docs-check: fail when the docs drift from the binaries or the Makefile.
#
#   1. Every backticked `-flag` in the docs must be a flag some binary or
#      test file actually defines (go-tool flags like -run are allowlisted).
#   2. Every flag ringbft-node defines must be documented: the deployment
#      binary's knob surface is the docs' contract with operators.
#   3. Every `make <target>` the docs reference must exist in the Makefile.
#   4. ARCHITECTURE.md must exist and be linked from README.md.
#   5. Every backticked path under cmd/, internal/, benchmark/ or scripts/
#      the docs name must exist (patterns with <, * or { are skipped).
#   6. Every Test*/Benchmark*/Fuzz* name inside a backticked span of the
#      docs, and every name in a Makefile or CI -bench/-fuzz pattern, must
#      be defined by some _test.go; a prefix of a defined name counts, for
#      families such as TestSignatureBudget.
#
# Run as `make docs-check` (part of `make verify` and the CI build-test job).
set -eu
cd "$(dirname "$0")/.."

DOCS="README.md EXPERIMENTS.md ARCHITECTURE.md"
fail=0

# Flags owned by the go tool itself; the docs name them in test/bench
# invocations, no binary of ours defines them.
go_tool_flags="run v race bench benchmem benchtime fuzz fuzztime"

# Every flag name defined via the flag package anywhere in cmd/, internal/
# (test files define the -chaos.* replay flags) or benchmark/.
defined=$(grep -rhoE 'flag\.[A-Za-z0-9]+\("[^"]+"' cmd internal benchmark --include='*.go' \
    | sed -E 's/.*\("([^"]+)"/\1/' | sort -u)

# 1. Documented flags must exist. A doc flag is a backtick immediately
# followed by a dash: `-pipeline-depth`, `-chaos.seed=N`, `-profile full`.
doc_flags=$(grep -ohE '`-[a-z][a-z0-9.-]*' $DOCS | sed 's/^`-//' | sort -u)
for f in $doc_flags; do
    case " $go_tool_flags " in *" $f "*) continue ;; esac
    if ! printf '%s\n' "$defined" | grep -qx "$f"; then
        echo "docs-check: docs mention \`-$f\` but no binary defines a flag named \"$f\"" >&2
        fail=1
    fi
done

# 2. Every ringbft-node flag must appear as -<name> somewhere in the docs.
node_flags=$(grep -oE 'flag\.[A-Za-z0-9]+\("[^"]+"' cmd/ringbft-node/main.go \
    | sed -E 's/.*\("([^"]+)"/\1/')
for f in $node_flags; do
    if ! grep -qE -- "-$f\b" $DOCS; then
        echo "docs-check: ringbft-node defines -$f but no doc mentions it" >&2
        fail=1
    fi
done

# 3. Referenced make targets must exist. Doc references are either
# backticked (`make verify`) or a code-fence line starting with "make ".
targets=$(grep -E '^[A-Za-z][A-Za-z0-9_-]*:' Makefile | cut -d: -f1 | sort -u)
doc_targets=$(grep -ohE '(`|^)make [a-z][a-z0-9-]*' $DOCS \
    | sed -E 's/^`?make //' | sort -u)
for t in $doc_targets; do
    if ! printf '%s\n' "$targets" | grep -qx "$t"; then
        echo "docs-check: docs reference \"make $t\" but the Makefile has no target \"$t\"" >&2
        fail=1
    fi
done

# 4. The architecture doc must exist and be reachable from the README.
if [ ! -f ARCHITECTURE.md ]; then
    echo "docs-check: ARCHITECTURE.md is missing" >&2
    fail=1
elif ! grep -q 'ARCHITECTURE.md' README.md; then
    echo "docs-check: README.md does not link ARCHITECTURE.md" >&2
    fail=1
fi

# 5. Named paths must exist. A doc path is a backtick immediately followed
# by one of the four source roots; a trailing "/" or "." is punctuation.
doc_paths=$(grep -ohE '`(cmd|internal|benchmark|scripts)/[A-Za-z0-9_./<>*{},-]*' $DOCS \
    | sed -E 's/^`//; s/[./]+$//' | sort -u)
for p in $doc_paths; do
    case "$p" in *'<'*|*'*'*|*'{'*) continue ;; esac
    if [ ! -e "$p" ]; then
        echo "docs-check: docs name \`$p\` but no such file or directory exists" >&2
        fail=1
    fi
done

# 6. Named tests, benchmarks and fuzz targets must exist. Doc names are
# taken from inside single-line backtick spans; Makefile and CI names from
# the -bench/-fuzz patterns, split on "|".
test_funcs=$(grep -rhoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' --include='*_test.go' . \
    | sed 's/^func //' | sort -u)
doc_tests=$(grep -ohE '`[^`]*`' $DOCS | grep -oE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' || true)
pattern_tests=$(grep -ohE -- "-(bench|fuzz) +'?[^ ']+" Makefile .github/workflows/*.yml \
    | sed -E "s/^-(bench|fuzz) +'?//" | tr '|' '\n' \
    | grep -E '^(Test|Benchmark|Fuzz)[A-Za-z0-9_]*$' || true)
named_tests=$(printf '%s\n%s\n' "$doc_tests" "$pattern_tests" | grep -v '^$' | sort -u)
for n in $named_tests; do
    if ! printf '%s\n' "$test_funcs" | grep -q "^$n"; then
        echo "docs-check: docs, Makefile or CI name $n but no _test.go defines it" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docs-check: OK ($(printf '%s\n' "$doc_flags" | wc -l | tr -d ' ') doc flags, $(printf '%s\n' "$doc_targets" | wc -l | tr -d ' ') make targets, $(printf '%s\n' "$doc_paths" | wc -l | tr -d ' ') paths, $(printf '%s\n' "$named_tests" | wc -l | tr -d ' ') test names cross-checked)"
