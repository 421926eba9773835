#!/usr/bin/env bash
# Doc link checker: every relative markdown link and every backtick-quoted
# repo path referenced from *.md must exist. External links (http/https),
# anchors, and mailto are skipped. Run from anywhere; checks the whole repo.
#
# A backtick-quoted path is the first word of a `...` span that starts with
# src/ tests/ bench/ docs/ examples/ scripts/ or stbench/. A `:line` suffix
# is stripped, `{a,b}` alternatives and `*` globs are expanded, and a bench
# or example binary name passes when its .cc/.cpp source exists. Paths are
# checked in the documentation proper: README.md, DESIGN.md, EXPERIMENTS.md
# and every markdown file below the root. The other root-level notes (the
# change log, the roadmap, paper excerpts) record paths that are gone or not
# yet written.
#
#   scripts/check_docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Markdown files outside build trees and third-party material.
mapfile -t MD_FILES < <(find . -name '*.md' \
  -not -path './build*' -not -path './.git/*' | sort)

for md in "${MD_FILES[@]}"; do
  dir="$(dirname "$md")"
  # [text](target) style links, one per line even when a line holds several.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"          # strip an anchor suffix
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $md -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done

# True when repo path $1 exists: braces expanded, globs matched, binary
# names resolved to their source file.
path_exists() {
  local p="$1"
  if [[ "$p" =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
    local head="${BASH_REMATCH[1]}" tail="${BASH_REMATCH[3]}" alt alts
    IFS=',' read -ra alts <<< "${BASH_REMATCH[2]}"
    for alt in "${alts[@]}"; do
      path_exists "$head$alt$tail" || return 1
    done
    return 0
  fi
  compgen -G "$p" >/dev/null || [ -e "$p.cc" ] || [ -e "$p.cpp" ]
}

for md in "${MD_FILES[@]}"; do
  case "$md" in
    ./README.md|./DESIGN.md|./EXPERIMENTS.md|./*/*) ;;
    *) continue ;;
  esac
  while IFS= read -r span; do
    path="${span%% *}"            # the first word: drop command arguments
    path="${path%%:[0-9]*}"       # strip a :line or :line-line suffix
    if ! path_exists "$path"; then
      echo "MISSING PATH: $md -> \`$span\`" >&2
      fail=1
    fi
  done < <(grep -oE '`(src|tests|bench|docs|examples|scripts|stbench)/[^`]*`' "$md" |
             sed -E 's/^`//; s/`$//')
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs.sh: broken links or paths found" >&2
  exit 1
fi
echo "check_docs.sh: ${#MD_FILES[@]} markdown files, all links and paths resolve"
