#!/usr/bin/env bash
# Docs consistency: fail if any *.md file referenced from Go sources or
# from README.md does not exist in the repo, or if the docs or a Go
# comment name an internal/<name> package path that is not a
# directory. The first check guards against the state where six source
# locations pointed readers at an EXPERIMENTS.md that was never
# written.
#
#   scripts/check_docs.sh
#
# References are bare markdown file names (EXPERIMENTS.md, ROADMAP.md,
# docs/foo.md, ...) resolved relative to the repo root. Placeholder
# names containing shell/template metacharacters ($, <, >, *) are
# ignored.
set -euo pipefail
cd "$(dirname "$0")/.."

refs="$(
    {
        grep -rhoE '[A-Za-z0-9_./-]+\.md' --include='*.go' . 2>/dev/null || true
        grep -hoE '[A-Za-z0-9_./-]+\.md' README.md 2>/dev/null || true
        grep -hoE '[A-Za-z0-9_./-]+\.md' OPERATIONS.md 2>/dev/null || true
    } | sed 's#^\./##' | sort -u
)"

fail=0
for ref in $refs; do
    case "$ref" in
    *'$'* | *'<'* | *'>'* | *'*'*) continue ;;
    esac
    if [ ! -f "$ref" ]; then
        echo "check_docs: missing $ref (referenced from Go sources or README.md)" >&2
        # Show the referencing locations to make the failure actionable.
        grep -rn --include='*.go' -F "$ref" . | head -5 >&2 || true
        grep -n -F "$ref" README.md | head -5 >&2 || true
        fail=1
    fi
done

# Package paths: every internal/<name> named in README.md,
# OPERATIONS.md, CONTRIBUTING.md or a Go comment must be a directory,
# so a moved or deleted package leaves no dead path behind. The dated
# records (EXPERIMENTS.md, CHANGES.md, ROADMAP.md) are exempt: they
# describe the tree as it was.
pkgs="$(
    {
        grep -hoE 'internal/[A-Za-z0-9_]+' README.md OPERATIONS.md CONTRIBUTING.md 2>/dev/null || true
        grep -rhoE '//.*' --include='*.go' . 2>/dev/null | grep -oE 'internal/[A-Za-z0-9_]+' || true
    } | sort -u
)"
for pkg in $pkgs; do
    if [ ! -d "$pkg" ]; then
        echo "check_docs: $pkg names no directory" >&2
        grep -n -F "$pkg" README.md OPERATIONS.md CONTRIBUTING.md | head -5 >&2 || true
        grep -rn --include='*.go' -F "$pkg" . | grep -F '//' | head -5 >&2 || true
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_docs: all referenced .md files and internal package paths exist"

# Metrics reference completeness: delegated to the metricdoc analyzer
# (internal/analysis), which finds every obs registry registration
# statically and checks its name is a pramcc_-prefixed constant
# documented in OPERATIONS.md — same check this script used to do with
# `ccserve -list-metrics` + grep, now with source positions on failure.
go run ./cmd/cclint -run metricdoc ./...
echo "check_docs: all registered metrics documented in OPERATIONS.md (cclint -run metricdoc)"
