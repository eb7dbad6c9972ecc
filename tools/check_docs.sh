#!/bin/sh
# Docs/CLI consistency checks, run by the CI "docs" job (and available as
# a ctest).  Pure grep/sed over the sources — no build needed:
#
#   1. every flag a tool's parser accepts (drdesync, drdesync-fuzz,
#      drdesyncd, drdesync-bench) appears in that tool's usage() text
#      AND in docs/cli.md;
#   2. every `--flag` docs/cli.md documents is actually accepted by at
#      least one tool's parser (no stale docs);
#   3. every relative markdown link in README.md and docs/*.md resolves
#      to an existing file;
#   4. every current cache format a doc states ("cache_format_version": N,
#      "format is vN", "cache format vN") is flowdb::kCacheFormatVersion
#      (mentions of older formats, such as "a v6 directory", are free).
#
# Exits non-zero listing every failure.
set -u

repo=$(cd "$(dirname "$0")/.." && pwd)
cli_doc="$repo/docs/cli.md"
fail=0
all_parser_flags=""

# --- 1. parser flags -> usage() and docs/cli.md ---------------------------
# Flags are recognized in an if-chain of the form:  arg == "--name"
check_tool() {
  main="$repo/tools/$1"
  parser_flags=$(grep -o 'arg == "--[a-z-]*"' "$main" |
    sed 's/arg == "//; s/"//' | sort -u | tr '\n' ' ')
  if [ -z "$parser_flags" ]; then
    echo "FAIL: could not extract any flags from $main"
    fail=1
  fi
  all_parser_flags="$all_parser_flags $parser_flags"

  usage_text=$(sed -n '/^void usage()/,/^}/p' "$main")
  if [ -z "$usage_text" ]; then
    echo "FAIL: could not locate usage() in $main"
    fail=1
  fi

  for flag in $parser_flags; do
    case "$usage_text" in
      *"$flag"*) ;;
      *)
        echo "FAIL: flag $flag is accepted by the parser but missing from" \
             "usage() in tools/$1"
        fail=1
        ;;
    esac
    if ! grep -q -- "\`$flag\`" "$cli_doc"; then
      echo "FAIL: flag $flag is accepted by the tools/$1 parser but not" \
           "documented in docs/cli.md"
      fail=1
    fi
  done
}

check_tool drdesync_main.cpp
check_tool drdesync_fuzz_main.cpp
check_tool drdesyncd_main.cpp
check_tool drdesync_bench_main.cpp

# --- 2. docs/cli.md flags -> some parser ----------------------------------
doc_flags=$(grep -o '`--[a-z-]*`' "$cli_doc" | sed 's/`//g' | sort -u)
for flag in $doc_flags; do
  case " $all_parser_flags " in
    *" $flag "*) ;;
    *)
      echo "FAIL: docs/cli.md documents $flag but no tool parser" \
           "accepts it"
      fail=1
      ;;
  esac
done

# --- 3. relative markdown links resolve -----------------------------------
for md in "$repo/README.md" "$repo"/docs/*.md; do
  dir=$(dirname "$md")
  # Extract (target) of every [text](target) link, one per line.
  links=$(grep -o '\]([^)]*)' "$md" | sed 's/^](//; s/)$//')
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*) continue ;;
    esac
    target=${link%%#*}          # drop a #fragment, keep the file part
    [ -z "$target" ] && continue  # same-file fragment link
    if [ ! -e "$dir/$target" ]; then
      echo "FAIL: broken link '$link' in ${md#"$repo"/}"
      fail=1
    fi
  done
done

# --- 4. stated cache format == flowdb::kCacheFormatVersion ---------------
format=$(sed -n 's/.*kCacheFormatVersion = \([0-9]*\);.*/\1/p' \
  "$repo/src/flowdb/cache.h")
if [ -z "$format" ]; then
  echo "FAIL: could not read kCacheFormatVersion from src/flowdb/cache.h"
  fail=1
fi
stated='"cache_format_version": *[0-9]+|format is v[0-9]+|cache format v[0-9]+'
stale=$(grep -n -o -E "$stated" "$repo/README.md" "$repo"/docs/*.md |
  grep -v -E "[^0-9]$format\$")
if [ -n "$format" ] && [ -n "$stale" ]; then
  echo "$stale" | sed "s|^$repo/||; s|^|FAIL: cache format is v$format, docs say: |"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "check_docs: OK ($(echo "$all_parser_flags" | tr ' ' '\n' |
    sort -u | grep -c .) distinct flags, all links resolve)"
fi
exit "$fail"
