#!/usr/bin/env bash
# Documentation checks, run by the CI docs job and usable locally:
#
#   1. Every intra-repo markdown link ([text](path), relative or
#      repo-rooted) in tracked *.md files must resolve to an existing file
#      or directory. External (scheme://), mailto: and pure-anchor (#...)
#      links are ignored; a trailing #anchor is stripped before resolution.
#   2. Every public header in src/core/, src/obs/, src/service/ and
#      src/fault/ must open with a file-level doc comment (its first line is
#      a // comment), so the core, observability, service and fault-injection
#      APIs stay self-describing.
#   3. Every tests/golden/*, tests/data/* or repo-root BENCH_*.json path
#      named in tests/*.cpp, CMakeLists.txt or .github/workflows/ci.yml must
#      be tracked by git, so tier-1 and CI pass from a clean clone.
#   4. Every *.md file named in a // comment under src/ or tests/ must
#      exist, resolved from the repo root or from the commenting file's
#      directory, so a comment never defers its reasoning to a missing
#      document.
#   5. Every token of a ctest -R '^(A|B|...)' regex in
#      .github/workflows/ci.yml must be a prefix of a test suite declared in
#      tests/*.cpp — the first argument of TEST/TEST_F/TEST_P, or
#      Prefix/Suite from INSTANTIATE_TEST_SUITE_P — so a sanitizer job never
#      silently selects fewer tests than its regex names.
#
# Exits non-zero listing every violation. No dependencies beyond bash +
# coreutils + grep/sed.
set -u

cd "$(dirname "$0")/.."
failures=0

note_failure() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

# --- 1. intra-repo markdown links --------------------------------------------

# Tracked markdown only; fall back to find when git is unavailable.
if command -v git > /dev/null 2>&1 && git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  md_files=$(git ls-files '*.md')
else
  md_files=$(find . -name '*.md' -not -path './build*' -not -path './.git/*' | sed 's|^\./||')
fi

for file in $md_files; do
  dir=$(dirname "$file")
  # Inline links: capture the (...) target of every [...](...) occurrence.
  # Multiple links per line are handled by -o matching each occurrence.
  while IFS= read -r target; do
    case "$target" in
      '' | '#'* | *'://'* | mailto:*) continue ;;
    esac
    path="${target%%#*}"        # strip anchor
    path="${path%% *}"          # strip optional '"title"' suffix
    [ -z "$path" ] && continue
    if [ "${path#/}" != "$path" ]; then
      resolved=".${path}"       # repo-rooted link
    else
      resolved="$dir/$path"
    fi
    if [ ! -e "$resolved" ]; then
      note_failure "$file: broken intra-repo link '$target' (no such path: $resolved)"
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$file" 2> /dev/null | sed 's/^\[[^]]*\](\([^)]*\))$/\1/')
done

# --- 2. file-level doc comments on core/obs/service/fault public headers ------

for header in src/core/*.h src/obs/*.h src/service/*.h src/fault/*.h; do
  first_line=$(head -n 1 "$header")
  case "$first_line" in
    //*) ;;
    *) note_failure "$header: public header lacks a file-level doc comment (first line must be //)" ;;
  esac
done

# --- 3. test inputs named by tests, CMake and CI are tracked ------------------

# A golden file, test data file or committed bench record that exists only in
# one working tree passes locally and fails from a clean clone. Repo-root
# BENCH_*.json records only: a name right after a '/' is a CI output path.
if command -v git > /dev/null 2>&1 && git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  referrers=(tests/*.cpp CMakeLists.txt .github/workflows/ci.yml)
  inputs=$({
    grep -ohE 'tests/(golden|data)/[A-Za-z0-9_.-]+' "${referrers[@]}"
    grep -ohE '(^|[^/A-Za-z0-9_.-])BENCH_[A-Za-z0-9_.-]*\.json' "${referrers[@]}" |
      sed 's/^[^B]*//'
  } | sort -u)
  for input in $inputs; do
    git ls-files --error-unmatch "$input" > /dev/null 2>&1 ||
      note_failure "$input: referenced from tests, CMake or CI but not tracked by git"
  done
fi

# --- 4. markdown files named in source comments exist -------------------------

# grep -o keeps each matching line from its first // on, i.e. the comment.
while IFS= read -r hit; do
  file=${hit%%:*}
  for name in $(grep -oE '[A-Za-z0-9_./-]+\.md\b' <<< "${hit#*:}"); do
    case "$name" in
      *//*) continue ;;  # part of a URL
    esac
    [ -e "$name" ] || [ -e "$(dirname "$file")/$name" ] ||
      note_failure "$file: comment names '$name', which does not exist"
  done
done < <(grep -rHoE --include='*.h' --include='*.cpp' '//.*\.md\b' src tests)

# --- 5. CI test regexes name declared suites ---------------------------------

# Declarations may wrap, so each test file is read as one line.
suites=$(for file in tests/*.cpp; do
  tr '\n' ' ' < "$file" | grep -oE '\bTEST(_F|_P)?\(\s*[A-Za-z0-9_]+' | sed -E 's/.*\(\s*//'
  tr '\n' ' ' < "$file" |
    grep -oE 'INSTANTIATE_TEST_SUITE_P\(\s*[A-Za-z0-9_]+\s*,\s*[A-Za-z0-9_]+' |
    sed -E 's/.*\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)$/\1\/\2/'
done | sort -u)

for token in $(grep -oE -- "-R '\^\([^)]*\)'" .github/workflows/ci.yml |
                 sed -E "s/^-R '\^\((.*)\)'$/\1/" | tr '|' '\n' | sort -u); do
  grep -q "^${token}" <<< "$suites" ||
    note_failure ".github/workflows/ci.yml: ctest regex token '$token' matches no suite declared in tests/*.cpp"
done

if [ "$failures" -gt 0 ]; then
  echo "check_docs: $failures problem(s) found" >&2
  exit 1
fi
echo "check_docs: OK (markdown links + header doc comments + tracked test inputs + named docs + CI test regexes)"
