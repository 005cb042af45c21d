package main

import "fmt"

type metricDef struct{ name, unit string }

// layerMetrics lists the per-layer metrics every traced run prints, in
// BENCHMARK.json's order. A metric a workload does not exercise reads 0.
// Counts and times without "per" in their name are per round: one fill of
// a fresh store, or one one-second window of read or serve. The
// structural tree.level_files.*, flsm.* and leveled.* metrics come from
// the load phase of a traced fill run.
var layerMetrics = []metricDef{
	{"engine.write_stall_ms", "ms"},
	{"engine.stall_episodes", "count"},
	{"engine.batches_per_group", "ratio"},
	{"engine.syncs_per_commit", "ratio"},
	{"engine.commit_wait_us", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.sync_stalls", "count"},
	{"wal.append_sync_us", "us"},
	{"memtable.set_ns", "ns"},
	{"memtable.get_ns", "ns"},
	{"flush.busy_s", "s"},
	{"compaction.busy_s", "s"},
	{"compaction.mb_in", "MiB"},
	{"compaction.mb_out", "MiB"},
	{"compaction.mb_per_s", "MiB/s"},
	{"compaction.units", "count"},
	{"compaction.peak_parallelism", "count"},
	{"compaction.claim_stall_ms", "ms"},
	{"compaction.drain_s", "s"},
	{"tree.level_files.L0", "count"},
	{"tree.level_files.L1", "count"},
	{"tree.level_files.L2", "count"},
	{"tree.level_files.L3", "count"},
	{"tree.level_files.L4", "count"},
	{"tree.level_files.L5", "count"},
	{"tree.level_files.L6", "count"},
	{"flsm.guards", "count"},
	{"flsm.empty_guards", "count"},
	{"flsm.tables_per_guard_max", "count"},
	{"flsm.write_amp", "ratio"},
	{"leveled.write_amp", "ratio"},
	{"leveled.to_flsm_write_amp", "ratio"},
	{"leveled.trivial_moves", "count"},
	{"leveled.load_s", "s"},
	{"tree.space_amp", "ratio"},
	{"tree.tables_probed_per_get", "ratio"},
	{"tree.seek_compactions", "count"},
	{"bloom.negatives_per_get", "ratio"},
	{"bloom.false_positive_rate", "ratio"},
	{"sstable.get_ns", "ns"},
	{"block.seek_ns", "ns"},
	{"compress.ratio", "ratio"},
	{"compress.encode_ms", "ms"},
	{"compress.decode_us_per_get", "us"},
	{"cache.get_hit_ratio", "ratio"},
	{"tablecache.hit_ratio", "ratio"},
	{"io.table_read_kb_per_op", "KiB"},
	{"iterator.tables_opened_per_seek", "ratio"},
	{"iterator.merging_next_ns", "ns"},
	{"server.ping_rtt_us", "us"},
	{"server.queue_us", "us"},
	{"op.put_p50_us", "us"},
	{"op.put_p99_us", "us"},
	{"op.get_p50_us", "us"},
	{"op.get_p99_us", "us"},
	{"op.seek_p50_us", "us"},
	{"op.seek_p99_us", "us"},
	{"op.slo_kops", "kops"},
	{"op.fail_ratio", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_p99_us", "us"},
	{"trace.put_self_us", "us"},
	{"trace.put_stall_us", "us"},
	{"trace.overhead_pct", "%"},
}

// layers fills the per-layer metrics that derive from counters, spans and
// latencies the same way on every workload. Counter deltas come from the
// traced rounds; the overhead compares their time per operation with the
// untraced rounds'.
func (b *bench) layers(plain, traced []roundOut) error {
	all := b.tr.all()
	var c counters
	var ops int64
	var mallocs, pauseNs float64
	for _, r := range traced {
		c.add(r.c)
		ops += r.ops
		mallocs += float64(r.rt.mallocs)
		pauseNs += float64(r.rt.pauseNs)
	}
	n := float64(len(traced))
	L := b.layer
	L["engine.write_stall_ms"] = c[cStallNs] / 1e6 / n
	L["engine.stall_episodes"] = float64(b.tr.episodes[spStall]) / n
	L["engine.batches_per_group"] = c.ratio(cBatches, cGroups)
	L["engine.syncs_per_commit"] = c.ratio(cWALSyncs, cSyncCommits)
	L["engine.commit_wait_us"] = c.ratio(cCommitWaitNs, cCommits) / 1e3
	L["wal.bytes_per_user_byte"] = c.ratio(cWALBytes, cUserBytes)
	L["wal.sync_stalls"] = float64(b.tr.episodes[spWALStall]) / n
	L["flush.busy_s"] = busy(all, spFlush) / n
	compBusy := busy(all, spCompaction)
	L["compaction.busy_s"] = compBusy / n
	L["compaction.mb_in"] = c[cBytesIn] / (1 << 20) / n
	L["compaction.mb_out"] = c[cBytesOut] / (1 << 20) / n
	if compBusy > 0 {
		L["compaction.mb_per_s"] = c[cBytesOut] / (1 << 20) / compBusy
	}
	L["compaction.units"] = c[cUnits] / n
	L["compaction.claim_stall_ms"] = c[cClaimStallNs] / 1e6 / n
	L["tree.tables_probed_per_get"] = c.ratio(cProbed, cGets)
	L["tree.seek_compactions"] = c[cSeekCompactions] / n
	L["bloom.negatives_per_get"] = c.ratio(cBloomNeg, cGets)
	if d := c[cBloomFP] + c[cBloomNeg]; d > 0 {
		L["bloom.false_positive_rate"] = c[cBloomFP] / d
	}
	L["compress.ratio"] = c.ratio(cPhysical, cLogical)
	L["compress.encode_ms"] = c[cEncodeNs] / 1e6 / n
	L["compress.decode_us_per_get"] = c.ratio(cDecompressNs, cGets) / 1e3
	if d := c[cCacheHits] + c[cCacheMisses]; d > 0 {
		L["cache.get_hit_ratio"] = c[cCacheHits] / d
	}
	if d := c[cTCHits] + c[cTCMisses]; d > 0 {
		L["tablecache.hit_ratio"] = c[cTCHits] / d
	}
	if ops > 0 {
		L["io.table_read_kb_per_op"] = c[cTableRead] / 1024 / float64(ops)
		L["runtime.allocs_per_op"] = mallocs / float64(ops)
	}
	L["iterator.tables_opened_per_seek"] = c.ratio(cIterTables, cIterators)
	L["runtime.gc_pause_ms"] = pauseNs / 1e6 / n
	for _, op := range []string{"put", "get", "seek"} {
		pooled := newLat(0)
		for _, r := range traced {
			if l := r.lat[op]; l != nil {
				pooled.merge(l)
			}
		}
		L["op."+op+"_p50_us"], _ = pooled.pct(50)
		L["op."+op+"_p99_us"], _ = pooled.pct(99)
	}
	put := spPut
	if b.workload == "serve" {
		put = spRPCPut
	}
	L["trace.put_self_us"], L["trace.put_stall_us"] = selfTime(all, put)
	for _, m := range layerMetrics {
		if _, ok := traced[0].v[m.name]; ok {
			L[m.name] = medianOf(traced, func(r roundOut) float64 { return r.v[m.name] })
		}
	}
	opTime := func(rs []roundOut) float64 {
		if _, ok := rs[0].v["op_us"]; ok {
			return medianOf(rs, func(r roundOut) float64 { return r.v["op_us"] })
		}
		return medianOf(rs, func(r roundOut) float64 { return r.secs / float64(r.ops) })
	}
	L["trace.overhead_pct"] = (opTime(traced)/opTime(plain) - 1) * 100

	path, err := b.tr.write(all, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(all), path)
	return nil
}
