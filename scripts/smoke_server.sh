#!/bin/sh
# Socket front-end smoke test: start `unicast listen` on a Unix-domain
# socket, drive a short transcript through `unicast client`, check the
# replies line-by-line, then SIGINT the server and verify it drains and
# exits 0.  Run from the repo root (make smoke does this for you).
set -eu

UNICAST="dune exec --no-build bin/unicast.exe --"
DIR=$(mktemp -d "${TMPDIR:-/tmp}/wnet-smoke.XXXXXX")
SOCK="$DIR/server.sock"
GRAPH="$DIR/graph.txt"
OUT="$DIR/transcript.txt"
SERVER_LOG="$DIR/server.log"
SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

fail() {
  echo "smoke_server: FAIL: $1" >&2
  echo "--- transcript ---" >&2
  cat "$OUT" >&2 || true
  echo "--- server log ---" >&2
  cat "$SERVER_LOG" >&2 || true
  exit 1
}

dune build bin/unicast.exe

$UNICAST generate --model gnp -n 16 --seed 7 > "$GRAPH"

$UNICAST listen --socket "$SOCK" --model node "$GRAPH" > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!

# Wait for the socket to appear.
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && fail "server socket never appeared"
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died on startup"
  sleep 0.05
done

# One client: bump a node's declared cost, collect payments twice (the
# second run must reuse every cached tree), read the counters, quit.
# --verify-responses makes the client re-parse and re-print every server
# line and exit 1 unless each round-trips byte-identically — the wire
# grammar check, covering the stats line's task counters.
$UNICAST client --socket "$SOCK" --verify-responses > "$OUT" <<'EOF'
cost 3 4.25
pay
pay
stats
quit
EOF

grep -q '^ready proto=1 model=node'        "$OUT" || fail "missing ready banner"
grep -q '^ok version=1$'                   "$OUT" || fail "cost edit not acked"
[ "$(grep -c '^ok served=' "$OUT")" = 2 ]         || fail "expected two pay summaries"
grep -q '^ok served=0' "$OUT" && fail "no source was served (bad instance?)"
grep -q '^ok edits=1 coalesced=1 inval_passes=1'  "$OUT" || fail "session counters wrong"
grep -Eq '^ok edits=1 .* tasks=[0-9]+ stolen=[0-9]+' "$OUT" \
  || fail "stats line missing the scheduler task counters"
grep -Eq '^ok edits=1 .* avoid_bounded=[0-9]+ avoid_fallback=[0-9]+$' "$OUT" \
  || fail "stats line missing the bounded-kernel counters"
grep -Eq '^ok edits=1 .* avoid_bounded=[1-9]' "$OUT" \
  || fail "bounded kernel never served a cache-miss fill"
grep -q '^server clients=1'                "$OUT" || fail "missing server counters"
grep -q '^conn requests=4'                 "$OUT" || fail "missing conn counters"
grep -q '^bye$'                            "$OUT" || fail "quit not answered with bye"

# A second client packs its edits with --batch: four cost lines leave in
# one socket write, land at the server inside one read, and must
# coalesce into a single invalidation pass (inval_passes 1 -> 2).
$UNICAST client --socket "$SOCK" --batch 8 --verify-responses > "$OUT.batch" <<'EOF'
cost 3 5.0
cost 5 2.5
cost 7 8.0
cost 9 1.25
pay
stats
quit
EOF

grep -q '^ok edits=5 coalesced=5 inval_passes=2' "$OUT.batch" \
  || fail "--batch edits did not coalesce into one invalidation pass"
grep -q '^bye$' "$OUT.batch" || fail "batch client quit not answered"

# A third client upgrades to the binary frame protocol (proto=2): the
# same request lines leave as length-prefixed binary frames (--batch
# packs the edit burst into ONE batch frame), the replies come back as
# binary frames and are printed as the same text lines a proto=1 client
# would show — plus the extra `ready proto=2` upgrade banner.
$UNICAST client --socket "$SOCK" --proto 2 --batch 8 --verify-responses > "$OUT.bin" <<'EOF'
cost 3 6.5
cost 5 3.75
pay
stats
quit
EOF

grep -q '^ready proto=1 model=node' "$OUT.bin" || fail "binary client missed the text banner"
grep -q '^ready proto=2 model=node' "$OUT.bin" || fail "proto=2 upgrade not acked"
grep -q '^ok edits=7 coalesced=7 inval_passes=3' "$OUT.bin" \
  || fail "binary batch edits did not coalesce into one invalidation pass"
grep -Eq '^conn requests=[0-9]+ bytes_in=[0-9]+ bytes_out=[0-9]+ proto=2$' "$OUT.bin" \
  || fail "conn stats must report proto=2"
grep -q '^bye$' "$OUT.bin" || fail "binary client quit not answered"

# Graceful shutdown: SIGINT must drain and exit 0, removing the socket.
kill -INT "$SERVER_PID"
wait "$SERVER_PID" || fail "server did not exit cleanly on SIGINT"
SERVER_PID=""
[ ! -S "$SOCK" ] || fail "socket file left behind"
grep -q '^served 3 client(s)' "$SERVER_LOG" || fail "final counters not printed"

# Link model: one transcript (edits and three pays) through `unicast
# serve` on stdin, and through `listen` + `client` on a socket, once as
# text and once as binary frames (on the server's second session, so
# it starts from the same graph).  The stdin loop prints the reply list
# `handle` builds; the server renders each pay straight from the
# session's pay view, as text lines through its memo or as one frame.
# All three sets of pay lines must be byte-identical.
LGRAPH="$DIR/links.txt"
LSOCK="$DIR/link.sock"
$UNICAST generate --model gnp -n 40 --seed 11 \
  | awk '/^node/ { c[$2] = $3 }
         /^edge/ { printf "link %d %d %s\nlink %d %d %s\n", $2, $3, c[$2], $3, $2, c[$3] }' \
  > "$LGRAPH"
awk '/^link/ && n < 3 { printf "cost %s %s %s\n", $2, $3, $4 * 2; n++ }' "$LGRAPH" \
  > "$DIR/edits.txt"
{
  head -n 2 "$DIR/edits.txt"
  echo pay
  tail -n 1 "$DIR/edits.txt"
  echo pay
  echo pay
  echo quit
} > "$DIR/link-transcript.txt"
$UNICAST serve --model link "$LGRAPH" < "$DIR/link-transcript.txt" > "$OUT.link-stdin"

$UNICAST listen --socket "$LSOCK" --model link --sessions 2 "$LGRAPH" > "$SERVER_LOG.link" 2>&1 &
LINK_PID=$!
SERVER_PID=$LINK_PID
i=0
while [ ! -S "$LSOCK" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && fail "link server socket never appeared"
  kill -0 "$LINK_PID" 2>/dev/null || fail "link server died on startup"
  sleep 0.05
done
$UNICAST client --socket "$LSOCK" --verify-responses < "$DIR/link-transcript.txt" \
  > "$OUT.link-sock"

{ echo "session 1"; cat "$DIR/link-transcript.txt"; } \
  | $UNICAST client --socket "$LSOCK" --proto 2 --verify-responses \
  > "$OUT.link-bin"

grep -E '^(src |ok served=)' "$OUT.link-stdin" > "$OUT.link-stdin.pay"
grep -E '^(src |ok served=)' "$OUT.link-sock" > "$OUT.link-sock.pay"
grep -E '^(src |ok served=)' "$OUT.link-bin" > "$OUT.link-bin.pay"
[ "$(grep -c '^ok served=' "$OUT.link-stdin.pay")" = 3 ] \
  || fail "link transcript: expected three pay replies on stdin"
grep -q '^src ' "$OUT.link-stdin.pay" || fail "link transcript served no source"
diff "$OUT.link-stdin.pay" "$OUT.link-sock.pay" > /dev/null \
  || fail "link pay lines differ between serve and listen + client"
diff "$OUT.link-stdin.pay" "$OUT.link-bin.pay" > /dev/null \
  || fail "link pay lines differ between serve and listen + client --proto 2"

# A request line over the 1 MiB cap (1 MiB + 16 KiB, no newline) is
# answered with err, then bye, and the connection closes.  The overrun
# is small enough for the socket buffer to take, so the client is done
# writing before the server closes.
head -c 1064960 /dev/zero | tr '\0' 'a' \
  | $UNICAST client --socket "$LSOCK" > "$OUT.big" || true
[ "$(tail -n 2 "$OUT.big")" = "$(printf 'err line too long\nbye')" ] \
  || fail "oversize line not answered with err, then bye"

kill -INT "$LINK_PID"
wait "$LINK_PID" || fail "link server did not exit cleanly on SIGINT"
SERVER_PID=""
[ ! -S "$LSOCK" ] || fail "link socket file left behind"

echo "smoke_server: OK"
