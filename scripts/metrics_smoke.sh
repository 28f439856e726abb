#!/bin/sh
# Observability smoke test: boot sedad, drive one traced query, scrape
# GET /metrics, and validate the exposition against the Prometheus text
# format grammar with promcheck — failing on unparseable output or a
# missing metric family. Run from the repo root (`make metrics-smoke`).
set -eu

GO="${GO:-go}"
ADDR="${ADDR:-127.0.0.1:18231}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
PID=""
cleanup() {
	[ -n "$PID" ] && kill "$PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$WORK/sedad" ./cmd/sedad
"$GO" build -o "$WORK/promcheck" ./cmd/promcheck

# -compact-threshold 0 disables the background compactor so the
# lifecycle phase below observes the masked ratio deterministically and
# drives the compaction itself (the threshold path is covered by
# TestBackgroundCompaction in CI). -data plus a 1-byte resident budget
# forces disk-backed paging: the engine persists after first build,
# re-binds to its snapshot, and queries read their posting runs from the
# file, each evicting the run before it — so the seda_paging_disk_*
# families below must move.
"$WORK/sedad" -addr "$ADDR" -preload worldfactbook -scale 0.05 -shards 4 -slowlog 5s -compact-threshold 0 -data "$WORK/data" -resident-budget 1 2>"$WORK/sedad.log" &
PID=$!

ok=""
for _ in $(seq 1 50); do
	if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then ok=1; break; fi
	sleep 0.2
done
if [ -z "$ok" ]; then
	echo "metrics-smoke: sedad did not come up on $ADDR" >&2
	cat "$WORK/sedad.log" >&2
	exit 1
fi

# One real query (builds the engine) with explain=true: the response must
# carry the trace, and the search/cache/engine families must appear in the
# scrape below.
SID="$(curl -fsS -X POST "$BASE/sessions" \
	-d '{"collection":"worldfactbook","query":"(trade_country, germany) AND (percentage, *)"}' \
	| sed -n 's/.*"session":"\([^"]*\)".*/\1/p')"
if [ -z "$SID" ]; then
	echo "metrics-smoke: could not create a session" >&2
	exit 1
fi
RESP="$(curl -fsS -X POST "$BASE/sessions/$SID/query" -d '{"k":5,"explain":true}')"
case "$RESP" in
*'"trace"'*) ;;
*)
	echo "metrics-smoke: explain response carries no trace: $RESP" >&2
	exit 1
	;;
esac

curl -fsS "$BASE/metrics" | "$WORK/promcheck" -require \
	seda_topk_searches_total,seda_topk_search_duration_seconds,seda_http_requests_total,seda_http_request_duration_seconds,seda_topk_served_total,seda_engine_phase_seconds,seda_engine_ops_total,seda_sessions_active,seda_build_info,seda_uptime_seconds,seda_paging_pageins_total,seda_paging_evictions_total,seda_paging_resident_bytes,seda_paging_disk_reads_total,seda_paging_disk_read_seconds,seda_term_cache_hits_total,seda_term_cache_misses_total

# Disk-backed paging must actually have happened: the traced query above
# ran against a snapshot-bound engine under a 1-byte budget, so at least
# one run was read (and CRC-verified) from the snapshot file.
case "$(curl -fsS "$BASE/metrics")" in
*'seda_paging_disk_reads_total 0'*)
	echo "metrics-smoke: disk-backed engine served without a single disk read" >&2
	exit 1
	;;
esac

# Compaction under load: upload a small collection, delete a document (the
# tombstone-ratio gauge must report the pressure), then compact while a
# background query loop hammers the collection — the rewrite swaps
# generations under live traffic. The final scrape must carry the
# lifecycle families.
curl -fsS -X POST "$BASE/collections" -d \
	'{"name":"smokelabs","documents":[{"name":"a.xml","xml":"<lab><name>alpha</name></lab>"},{"name":"b.xml","xml":"<lab><name>beta</name></lab>"}]}' \
	>/dev/null
curl -fsS -X DELETE "$BASE/collections/smokelabs/documents/b.xml" >/dev/null
case "$(curl -fsS "$BASE/metrics")" in
*'seda_tombstone_ratio{collection="smokelabs"} 0.5'*) ;;
*)
	echo "metrics-smoke: tombstone-ratio gauge missing the masked collection" >&2
	exit 1
	;;
esac
(
	for _ in $(seq 1 20); do
		QSID="$(curl -fsS -X POST "$BASE/sessions" \
			-d '{"collection":"smokelabs","query":"(name, alpha)"}' \
			| sed -n 's/.*"session":"\([^"]*\)".*/\1/p')"
		curl -fsS "$BASE/sessions/$QSID/topk?k=5" >/dev/null
	done
) &
LOAD=$!
curl -fsS -X POST "$BASE/collections/smokelabs/compact" >/dev/null
if ! wait "$LOAD"; then
	echo "metrics-smoke: query load failed during compaction" >&2
	exit 1
fi
curl -fsS "$BASE/metrics" | "$WORK/promcheck" -require \
	seda_compactions_total,seda_tombstone_ratio,seda_engine_ops_total

echo "metrics-smoke: ok"
