#!/usr/bin/env bash
# Checks that README.md, DESIGN.md and EXPERIMENTS.md cite only things that
# exist. Every backticked file path (`*.rs|json|md|sh|txt|toml`, with an
# optional `:line` or `:first–last` suffix) must be a tracked file, either
# as written or as the suffix of one (`core/src/exec.rs`, `bitmaps.rs`).
# Every `tests/<file>.rs::<name>` must name a `fn <name>` in that file.
# Every Rust path (`a::b`, `crate-name::item`, `Type::method()`) outside
# `std::`, `core::` and `alloc::` must end in an item some `.rs` file under
# crates/, src/ or tests/ declares: a fn, struct, enum, trait, type, const,
# static or mod, a `pub` field, or an enum variant.
# Tokens containing `<` or `*` are placeholders and are skipped.
# Usage: scripts/check_doc_refs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TRACKED=$(git ls-files)
PATH_RE='^[A-Za-z0-9_./-]+\.(rs|json|md|sh|txt|toml)$'
RUST_PATH_RE='^[A-Za-z_][A-Za-z0-9_-]*(::[A-Za-z_][A-Za-z0-9_]*)+(\(.*\))?$'
SOURCES=$(git ls-files 'crates/*.rs' 'src/*.rs' 'tests/*.rs')
failures=0

# Whether some source file declares an item, `pub` field or enum variant
# named `$1`.
is_declared() {
  local kw='(fn|struct|enum|trait|type|const|static|mod)'
  # shellcheck disable=SC2086
  grep -Eq -e "\b$kw +$1\b" -e "^\s*pub(\([a-z]+\))? +$1 *:" \
    -e "^\s*$1 *([({,]|$)" $SOURCES
}

# Whether some tracked file is `$1` or ends in `/$1`.
is_tracked() {
  awk -v want="$1" '
    $0 == want || substr($0, length($0) - length(want)) == "/" want { found = 1; exit }
    END { exit !found }
  ' <<<"$TRACKED"
}

for doc in README.md DESIGN.md EXPERIMENTS.md; do
  while IFS=: read -r line span; do
    case "$span" in *'<'* | *'*'*) continue ;; esac
    if [[ $span =~ $RUST_PATH_RE ]]; then
      case "$span" in std::* | core::* | alloc::*) continue ;; esac
      item=${span%%(*}
      item=${item##*::}
      if ! is_declared "$item"; then
        echo "$doc:$line: \`$span\` names no item \`$item\` under crates/, src/ or tests/"
        failures=$((failures + 1))
      fi
      continue
    fi
    test_name=""
    path=$span
    if [[ $span == *::* ]]; then
      path=${span%%::*}
      test_name=${span#*::}
    fi
    # Drop a `:line` or `:first–last` suffix.
    path=$(sed -E 's/:[0-9]+([–-][0-9]+)?$//' <<<"$path")
    [[ $path =~ $PATH_RE ]] || continue
    if ! is_tracked "$path"; then
      echo "$doc:$line: \`$span\` names no tracked file"
      failures=$((failures + 1))
    elif [[ -n $test_name && $path == tests/*.rs ]] &&
      ! grep -Eq "fn ${test_name}\b" "$path"; then
      echo "$doc:$line: \`$span\` names no fn ${test_name} in $path"
      failures=$((failures + 1))
    fi
  done < <(grep -no '`[^`]*`' "$doc" | sed 's/`//g')
done

if [ "$failures" -gt 0 ]; then
  echo "check_doc_refs: $failures stale reference(s)"
  exit 1
fi
echo "check_doc_refs: every cited path, test and Rust item exists"
