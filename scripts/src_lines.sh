#!/usr/bin/env bash
# Net size of src/: total lines of every .cpp and .h file under src/ at a
# git ref and in the working tree, plus the lines added and removed between
# them (git diff --numstat; files not yet added to git count as added).
#
# Usage: scripts/src_lines.sh [base-ref]
#   base-ref  commit to compare against (default: HEAD)
set -euo pipefail

cd "$(dirname "$0")/.."
BASE="${1:-HEAD}"
SPEC=('src/*.cpp' 'src/*.h')

count() { while read -r f; do cat "$f"; done | wc -l; }

base=$(git ls-tree -r --name-only "$BASE" -- src | grep -E '\.(cpp|h)$' |
  while read -r f; do git show "$BASE:$f"; done | wc -l)
tree=$(git ls-files --cached --others --exclude-standard -- "${SPEC[@]}" |
  while read -r f; do if [[ -f "$f" ]]; then echo "$f"; fi; done | count)
untracked=$(git ls-files --others --exclude-standard -- "${SPEC[@]}" | count)
read -r added removed < <(git diff --numstat "$BASE" -- "${SPEC[@]}" |
  awk '{a += $1; r += $2} END {print a + 0, r + 0}')
added=$((added + untracked))

echo "src/ .cpp/.h lines at $BASE: $base"
echo "src/ .cpp/.h lines in the working tree: $tree"
echo "added: +$added  removed: -$removed  net: $((tree - base))"
