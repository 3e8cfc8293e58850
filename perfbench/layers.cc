/**
 * @file
 * Traced per-layer run of one benchmark workload (the `--trace 1`
 * half of perfbench/run.py).
 *
 * Drives the same inputs and configuration as the untraced
 * simulate_trace run, but calls each module's public entry points
 * itself and records a span around every call: trace generation or
 * scan, summary, source pulls with and without decode-ahead, drive
 * construction, prefill, run and result, a functional replay through
 * Ftl::write/read and ResourceModel::scheduleOp, a standalone MqDvp
 * replay, a sampled (EpochSampler) run, the grid spool and the grid's
 * cell thread pool. Spans stay in memory and are written at exit;
 * one request id links the trace pull, FTL op and scheduleOp spans of
 * every sampled record.
 *
 *   perf_layers --workload mail --requests 1000000 --system dvp \
 *       --pool 200000 --out layers.json --spans spans.json
 *   perf_layers --trace-file t.csv.gz --version-period 8 \
 *       --system baseline --queue-depth 32 --out ... --spans ...
 *   perf_layers --trace-file g.csv.gz --version-period 8 \
 *       --grid system=baseline,dvp,dedup,dvp+dedup --jobs 4 ...
 *
 * Every drive's StatSet is emitted for comparison with the untraced
 * run's stdout, together with the exact SimResult counters the
 * conservation checks need.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "dedup/fingerprint_store.hh"
#include "dvp/mq_dvp.hh"
#include "ftl/ftl.hh"
#include "nand/flash_array.hh"
#include "nand/resource_model.hh"
#include "sim/experiment.hh"
#include "sim/grid.hh"
#include "sim/ssd.hh"
#include "trace/adapters.hh"
#include "trace/generator.hh"
#include "trace/prefetch.hh"
#include "trace/summary.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace zombie;

namespace
{

using Clock = std::chrono::steady_clock;

/** Records of every Nth record carry per-request spans. */
constexpr std::uint64_t kSampleEvery = 1024;

/** Epoch-sampler interval of the sampled run. */
constexpr double kStatsIntervalUs = 1000.0;

/** Mirrors Ssd::prefill's content ids. */
constexpr std::uint64_t kPrefillIdBase = 0xF000'0000'0000'0000ULL;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/**
 * Heap bytes in use, in MiB. Unlike RSS this sees an allocation that
 * reuses pages an earlier phase freed, so per-phase deltas are exact.
 */
double
heapMb()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) /
           (1024.0 * 1024.0);
}

/**
 * Highest heap use seen while alive, polled every 2 ms. The poller
 * locks the malloc arenas, so it only ever watches runs whose times
 * are discarded.
 */
class PeakHeap
{
  public:
    PeakHeap() : peak(heapMb()), poller([this] { loop(); }) {}
    ~PeakHeap() { stop(); }
    PeakHeap(const PeakHeap &) = delete;
    PeakHeap &operator=(const PeakHeap &) = delete;

    double
    stop()
    {
        done.store(true);
        if (poller.joinable())
            poller.join();
        return peak;
    }

  private:
    void
    loop()
    {
        while (!done.load()) {
            peak = std::max(peak, heapMb());
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        peak = std::max(peak, heapMb());
    }

    double peak;
    std::atomic<bool> done{false};
    std::thread poller;
};

/**
 * In-memory span log. Phase spans nest through a stack; per-record
 * spans are kept only for sampled records, while every record's time
 * goes into an aggregate row under its phase so the ledger's self
 * times are exact.
 */
class SpanLog
{
  public:
    std::uint32_t
    open(const std::string &name)
    {
        const auto id = static_cast<std::uint32_t>(spans.size() + 1);
        spans.push_back({name, id, stack.empty() ? 0 : stack.back(),
                         nowNs(), 0, 0, false});
        stack.push_back(id);
        return id;
    }

    /** Close the innermost span; returns its length in seconds. */
    double
    close(std::uint32_t id)
    {
        zombie_assert(!stack.empty() && stack.back() == id,
                      "span closed out of order");
        stack.pop_back();
        Span &s = spans[id - 1];
        s.end = nowNs();
        return static_cast<double>(s.end - s.start) * 1e-9;
    }

    std::uint32_t current() const { return stack.empty() ? 0 : stack.back(); }

    void
    sample(const char *name, std::int64_t start, std::int64_t end,
           std::uint64_t req)
    {
        spans.push_back({name, static_cast<std::uint32_t>(spans.size() + 1),
                         current(), start, end, req, true});
    }

    void
    aggregate(const std::string &name, std::uint64_t count,
              std::int64_t total_ns)
    {
        aggs.push_back({name, current(), count, total_ns});
    }

    /** Chrome trace_event JSON: open with Perfetto or about:tracing. */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            zombie_fatal("cannot write span file: ", path);
        const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
        os << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << static_cast<double>(s.start - t0) / 1e3
               << ",\"dur\":" << static_cast<double>(s.end - s.start) / 1e3
               << ",\"args\":{\"id\":" << s.id << ",\"parent\":"
               << s.parent;
            if (s.sampled)
                os << ",\"req\":" << s.req;
            os << "}}";
        }
        os << "\n]}\n";
    }

    /** Per-name count, total and self time as a JSON array. */
    std::string
    ledgerJson() const
    {
        std::vector<std::int64_t> children(spans.size() + 1, 0);
        for (const Span &s : spans)
            if (!s.sampled)
                children[s.parent] += s.end - s.start;
        for (const Aggregate &a : aggs)
            children[a.parent] += a.totalNs;
        struct Row
        {
            std::uint64_t count = 0;
            std::int64_t total = 0, self = 0;
        };
        std::map<std::string, Row> rows;
        for (const Span &s : spans) {
            if (s.sampled)
                continue;
            Row &r = rows[s.name];
            ++r.count;
            r.total += s.end - s.start;
            r.self += s.end - s.start - children[s.id];
        }
        for (const Aggregate &a : aggs) {
            Row &r = rows[a.name];
            r.count += a.count;
            r.total += a.totalNs;
            r.self += a.totalNs;
        }
        std::ostringstream os;
        os << std::setprecision(12) << "[";
        bool first = true;
        for (const auto &[name, r] : rows) {
            os << (first ? "" : ",") << "{\"name\":\"" << name
               << "\",\"count\":" << r.count << ",\"total_s\":"
               << static_cast<double>(r.total) * 1e-9 << ",\"self_s\":"
               << static_cast<double>(r.self) * 1e-9 << "}";
            first = false;
        }
        os << "]";
        return os.str();
    }

  private:
    struct Span
    {
        std::string name;
        std::uint32_t id, parent;
        std::int64_t start, end;
        std::uint64_t req;
        bool sampled;
    };
    struct Aggregate
    {
        std::string name;
        std::uint32_t parent;
        std::uint64_t count;
        std::int64_t totalNs;
    };
    std::vector<Span> spans;
    std::vector<Aggregate> aggs;
    std::vector<std::uint32_t> stack;
};

/** Span over one scope; stop() closes it early and returns seconds. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name)
        : log_(log), id(log.open(name))
    {
    }
    ~Scope()
    {
        if (!closed)
            log_.close(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    double
    stop()
    {
        closed = true;
        return log_.close(id);
    }

  private:
    SpanLog &log_;
    std::uint32_t id;
    bool closed = false;
};

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out + "\"";
}

/** One drive run split into its phases. */
struct CellRun
{
    SsdConfig cfg;
    SimResult result;
    double constructS = 0, prefillS = 0, runS = 0, resultS = 0;
    double ssdMb = 0;

    double window() const { return prefillS + runS + resultS; }
};

CellRun
runCell(SpanLog &log, const char *name, const SsdConfig &cfg,
        const std::vector<TraceRecord> *records,
        const TraceSourceFactory &factory, std::size_t prefetch)
{
    CellRun c;
    c.cfg = cfg;
    Scope cell(log, name);
    const double heap0 = heapMb();
    std::unique_ptr<Ssd> ssd;
    {
        Scope s(log, "sim.construct");
        ssd = std::make_unique<Ssd>(cfg);
        c.constructS = s.stop();
    }
    {
        Scope s(log, "sim.prefill");
        ssd->prefill();
        c.prefillS = s.stop();
    }
    c.ssdMb = heapMb() - heap0;
    {
        Scope s(log, "sim.run");
        if (records) {
            ssd->run(*records);
        } else {
            auto src = maybePrefetch(factory(), prefetch);
            ssd->run(*src);
        }
        c.runS = s.stop();
    }
    {
        Scope s(log, "sim.result");
        c.result = ssd->result();
        c.resultS = s.stop();
    }
    return c;
}

/** Drain a source, returning nanoseconds per record. */
double
drainNsPerRec(SpanLog &log, const char *name, TraceSource &src)
{
    Scope s(log, name);
    TraceRecord rec;
    std::uint64_t n = 0;
    while (src.next(rec))
        ++n;
    const double secs = s.stop();
    return n ? secs * 1e9 / static_cast<double>(n) : 0.0;
}

struct FunctionalCost
{
    double ftlNsPerOp = 0, nandNsPerOp = 0;
};

/**
 * Functional replay: the FTL and resource model wired as Ssd wires
 * them, fed straight from the trace source with no controller or
 * event engine. Each op's flash steps are scheduled as the flash
 * scheduler orders them (user steps chained from arrival, GC steps at
 * arrival), so the die-load view the FTL reads stays live.
 */
FunctionalCost
functionalReplay(SpanLog &log, const SsdConfig &cfg, TraceSource &src)
{
    Scope phase(log, "ftl.replay");
    FlashArray array(cfg.geom);
    std::unique_ptr<MqDvp> pool;
    std::unique_ptr<FingerprintStore> store;
    Ftl ftl(array, FtlConfig{.logicalPages = cfg.logicalPages,
                             .gcSoftWater = cfg.gcSoftWater,
                             .gcLowWater = cfg.gcLowWater,
                             .gcPagesPerStep = cfg.gcPagesPerStep,
                             .gcPolicy = cfg.resolvedGcPolicy(),
                             .gcPopWeight = cfg.gcPopWeight,
                             .hotColdSeparation = cfg.hotColdSeparation,
                             .hotThreshold = cfg.hotThreshold});
    ResourceModel res(cfg.geom, cfg.timing);
    if (usesDvp(cfg.system)) {
        pool = std::make_unique<MqDvp>(cfg.mq);
        ftl.attachDvp(pool.get());
    }
    if (usesDedup(cfg.system)) {
        store = std::make_unique<FingerprintStore>(cfg.logicalPages);
        ftl.attachDedup(store.get());
    }
    ftl.setDieLoadView(res.dieBusyTable(), cfg.geom.planesPerDie());
    ftl.setDieLoadGroups(res.dieGroupMinTable(),
                         static_cast<std::uint32_t>(res.dieGroupDies()));

    FlashStepBuffer steps;
    {
        Scope s(log, "ftl.prefill");
        const auto target = static_cast<std::uint64_t>(
            cfg.prefillFraction * static_cast<double>(cfg.logicalPages));
        for (std::uint64_t lpn = 0; lpn < target; ++lpn) {
            steps.clear();
            ftl.write(lpn, Fingerprint::fromValueId(kPrefillIdBase | lpn),
                      steps);
        }
    }

    std::int64_t pull_ns = 0, write_ns = 0, read_ns = 0, nand_ns = 0;
    std::uint64_t writes = 0, reads = 0, nand_ops = 0, req = 0;
    TraceRecord rec;
    std::int64_t t_pull = nowNs();
    while (src.next(rec)) {
        const std::int64_t t0 = nowNs();
        steps.clear();
        if (rec.isWrite())
            ftl.write(rec.lpn, rec.fp, steps);
        else
            ftl.read(rec.lpn, steps);
        const std::int64_t t1 = nowNs();
        Tick start = rec.arrival;
        for (const FlashStep &st : steps.userSteps)
            start = res.scheduleOp(st.op, st.ppn, start);
        for (const FlashStep &st : steps.gcSteps)
            res.scheduleOp(st.op, st.ppn, rec.arrival, true);
        const std::int64_t t2 = nowNs();

        pull_ns += t0 - t_pull;
        (rec.isWrite() ? write_ns : read_ns) += t1 - t0;
        (rec.isWrite() ? writes : reads) += 1;
        nand_ns += t2 - t1;
        nand_ops += steps.userSteps.size() + steps.gcSteps.size();
        if (req % kSampleEvery == 0) {
            log.sample("trace.pull", t_pull, t0, req);
            log.sample(rec.isWrite() ? "ftl.write" : "ftl.read", t0, t1,
                       req);
            log.sample("nand.scheduleOp", t1, t2, req);
        }
        ++req;
        t_pull = t2;
    }
    log.aggregate("trace.pull", req, pull_ns);
    log.aggregate("ftl.write", writes, write_ns);
    log.aggregate("ftl.read", reads, read_ns);
    log.aggregate("nand.scheduleOp", nand_ops, nand_ns);

    FunctionalCost cost;
    if (req)
        cost.ftlNsPerOp = static_cast<double>(write_ns + read_ns) /
                          static_cast<double>(req);
    if (nand_ops)
        cost.nandNsPerOp =
            static_cast<double>(nand_ns) / static_cast<double>(nand_ops);
    return cost;
}

/**
 * Standalone pool replay of the workload's writes: a log-structured
 * page allocator over the drive's physical pages supplies the PPNs.
 * An overwrite turns the old page into garbage (insertGarbage), a
 * write first asks the pool for a dead copy (lookupForWrite), and a
 * recycled page is erased (onErase); a still-live page met by the
 * allocator is moved ahead first, as GC would.
 */
double
dvpReplay(SpanLog &log, const SsdConfig &cfg,
          const std::vector<TraceRecord> &records)
{
    struct Page
    {
        Fingerprint fp{};
        Ppn ppn = kInvalidPpn;
        std::uint8_t pop = 0;
    };
    MqDvp pool(cfg.mq);
    std::vector<Page> map(cfg.logicalPages);
    const std::uint64_t physical = cfg.geom.totalPages();
    std::vector<Lpn> owner(physical, kInvalidLpn);
    std::uint64_t cursor = 0;
    // Next page in log order for @p lpn. A live page found there is
    // carried forward to the following slot, as GC would relocate it.
    const auto allocate = [&](Lpn lpn) {
        Lpn pending = lpn;
        Ppn placed = kInvalidPpn;
        for (;;) {
            const Ppn ppn = cursor++ % physical;
            pool.onErase(ppn);
            const Lpn live = owner[ppn];
            owner[ppn] = pending;
            map[pending].ppn = ppn;
            if (pending == lpn)
                placed = ppn;
            if (live == kInvalidLpn)
                return placed;
            pending = live;
        }
    };

    Scope s(log, "dvp.replay");
    std::uint64_t writes = 0;
    for (const TraceRecord &rec : records) {
        if (!rec.isWrite() || rec.lpn >= map.size())
            continue;
        ++writes;
        Page &page = map[rec.lpn];
        if (page.ppn != kInvalidPpn) {
            if (page.fp == rec.fp)
                continue; // same-value rewrite: no new garbage
            pool.insertGarbage(page.fp, rec.lpn, page.ppn, page.pop);
            owner[page.ppn] = kInvalidLpn;
        }
        const DvpLookupResult hit = pool.lookupForWrite(rec.fp, rec.lpn);
        page.fp = rec.fp;
        page.pop = hit.popularity;
        if (hit.hit) {
            page.ppn = hit.ppn;
            owner[hit.ppn] = rec.lpn;
        } else {
            allocate(rec.lpn);
        }
    }
    const double secs = s.stop();
    return writes ? secs * 1e9 / static_cast<double>(writes) : 0.0;
}

std::string
cellJson(const CellRun &c)
{
    const SimResult &r = c.result;
    std::ostringstream os;
    os << "{\"describe\":" << jsonString(c.cfg.describe())
       << ",\"statset\":" << jsonString(r.toStatSet().format())
       << ",\"requests\":" << r.requests << ",\"reads\":" << r.reads
       << ",\"writes\":" << r.writes
       << ",\"host_programs\":" << r.hostPrograms
       << ",\"revivals\":" << r.revivals
       << ",\"dedup_hits\":" << r.dedupHits << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Traced per-layer run of one benchmark workload");
    args.addOption("workload", "mail", "synthetic preset to generate");
    args.addOption("requests", "100000", "generated trace length");
    args.addOption("seed", "42", "generator seed");
    args.addOption("trace-file", "",
                   "generic-CSV trace to scan instead of generating");
    args.addOption("version-period", "0",
                   "synthesized-content recurrence period");
    args.addOption("system", "dvp", "system of the measured drive");
    args.addOption("pool", "5000", "dead-value pool entries");
    args.addOption("queue-depth", "1", "host-interface queue depth");
    args.addOption("grid", "",
                   "grid probe over the trace file, e.g. "
                   "\"system=baseline,dvp\"; cells pull inline");
    args.addOption("jobs", "1", "grid cells run concurrently");
    args.addOption("workdir", ".", "scratch directory (grid spool)");
    args.addOption("out", "", "result JSON path");
    args.addOption("spans", "", "span file path");
    args.parse(argc, argv);

    const std::string out_path = args.getString("out");
    const std::string span_path = args.getString("spans");
    if (out_path.empty() || span_path.empty())
        zombie_fatal("--out and --spans are required");
    const std::uint64_t pool = args.getUint("pool");
    const auto depth =
        static_cast<std::uint32_t>(args.getUint("queue-depth"));
    const std::string trace_file = args.getString("trace-file");
    const std::string workdir = args.getString("workdir");
    const bool synthetic = trace_file.empty();
    if (synthetic && !args.getString("grid").empty())
        zombie_fatal("--grid sweeps a trace file; it needs --trace-file");

    SpanLog log;
    std::map<std::string, double> m;
    const auto span_s = [&](const char *name, auto &&fn) {
        Scope s(log, name);
        fn();
        return s.stop();
    };

    // Trace layer: build the replayable trace, summarize it, pull it.
    // For a generated trace the generator is the streaming source, so
    // it stands in for ScannedTrace::factory().
    std::vector<TraceRecord> records;
    ScannedTrace scan;
    const double heap0 = heapMb();
    if (synthetic) {
        const WorkloadProfile profile = WorkloadProfile::preset(
            workloadFromString(args.getString("workload")), 1,
            args.getUint("requests"), args.getUint("seed"));
        m["trace.prepare_s"] = span_s("trace.generate", [&] {
            records = SyntheticTraceGenerator(profile).generateAll();
        });
        m["mem.trace_mb"] = heapMb() - heap0;
        Lpn max_lpn = 0;
        for (const auto &rec : records)
            max_lpn = std::max(max_lpn, rec.lpn);
        scan.factory = [profile] {
            return std::make_unique<SyntheticTraceGenerator>(profile);
        };
        scan.records = records.size();
        scan.footprintPages = max_lpn + 1;
    } else {
        ExternalTraceConfig tcfg;
        tcfg.path = trace_file;
        tcfg.format = ExternalFormat::GenericCsv;
        tcfg.versionPeriod =
            static_cast<std::uint32_t>(args.getUint("version-period"));
        m["trace.prepare_s"] =
            span_s("trace.scan", [&] { scan = scanExternalTrace(tcfg); });
        m["mem.trace_mb"] = heapMb() - heap0;
        if (scan.records == 0)
            zombie_fatal("trace is empty: ", trace_file);
        span_s("trace.materialize", [&] {
            auto src = scan.factory();
            records = drainSource(*src);
        });
    }
    m["trace.summarize_s"] =
        span_s("trace.summarize", [&] { summarizeTrace(records); });
    // Inline and decode-ahead drains alternate; each keeps its median.
    std::vector<double> inline_ns, ahead_ns;
    for (int i = 0; i < 3; ++i) {
        auto src = scan.factory();
        inline_ns.push_back(drainNsPerRec(log, "trace.pull.inline", *src));
        auto ahead =
            maybePrefetch(scan.factory(), PrefetchSource::kDefaultBatch);
        ahead_ns.push_back(
            drainNsPerRec(log, "trace.pull.prefetch", *ahead));
    }
    std::sort(inline_ns.begin(), inline_ns.end());
    std::sort(ahead_ns.begin(), ahead_ns.end());
    m["trace.pull_ns_per_rec"] = inline_ns[1];
    m["trace.prefetch_gain_pct"] = (1.0 - ahead_ns[1] / inline_ns[1]) * 100.0;

    std::unique_ptr<TraceSpool> spool;
    m["grid.spool_s"] = span_s("grid.spool", [&] {
        spool = std::make_unique<TraceSpool>(scan, 512ull << 20, workdir);
    });
    spool.reset();

    // Sim layer: the drive simulate_trace runs, split into phases.
    // simulate_trace replays a generated trace from memory and streams
    // a trace file through the default decode-ahead. The config is the
    // CLI's at its default options; run.py compares the describe()
    // line and StatSet with the CLI's, so the two cannot drift apart.
    SsdConfig cfg = SsdConfig::forFootprint(
        std::max<std::uint64_t>(scan.footprintPages, 1),
        systemKindFromString(args.getString("system")));
    cfg.mq.capacity = pool;
    cfg.queueDepth = depth;
    const std::vector<TraceRecord> *replay = synthetic ? &records : nullptr;
    const std::size_t prefetch = PrefetchSource::kDefaultBatch;
    const CellRun cell =
        runCell(log, "sim.cell", cfg, replay, scan.factory, prefetch);
    const SimResult &r = cell.result;
    const double run_s = cell.runS + cell.resultS;
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    m["sim.construct_s"] = cell.constructS;
    m["sim.prefill_s"] = cell.prefillS;
    m["sim.host_ns_per_req"] = ratio(run_s * 1e9, d(r.requests));
    m["sim.host_ns_per_event"] = ratio(run_s * 1e9, d(r.events));
    m["sim.events_per_req"] = ratio(d(r.events), d(r.requests));
    m["sim.blocked_admissions"] = d(r.hostQueue.blockedAdmissions);
    m["sim.max_waiting"] = d(r.hostQueue.maxWaiting);
    m["sim.cache_hit_rate"] = r.readCache.hitRate();
    m["mem.ssd_mb"] = cell.ssdMb;
    m["ftl.gc_relocs_per_write"] = ratio(d(r.gcRelocations), d(r.writes));
    m["ftl.erases_per_kwrite"] =
        ratio(d(r.flashErases) * 1000.0, d(r.writes));
    m["dvp.hit_rate"] = r.hasDvp ? r.dvpStats.hitRate() : 0.0;
    m["dvp.capacity_evictions"] =
        r.hasDvp ? d(r.dvpStats.capacityEvictions) : 0.0;
    m["dvp.gc_evictions"] = r.hasDvp ? d(r.dvpStats.gcEvictions) : 0.0;
    m["dedup.hit_rate"] = r.hasDedup ? r.dedupStats.hitRate() : 0.0;
    m["nand.max_die_backlog"] = d(r.maxDieBacklog);

    // Telemetry layer: the same drive with the epoch sampler attached.
    // Its StatSet must not move; run.py checks it.
    SsdConfig sampled_cfg = cfg;
    sampled_cfg.statsInterval = ticksFromUs(kStatsIntervalUs);
    const CellRun sampled = runCell(log, "telemetry.sampled_cell",
                                    sampled_cfg, replay, scan.factory,
                                    prefetch);
    m["telemetry.sampler_overhead_pct"] =
        (ratio(sampled.runS + sampled.resultS, run_s) - 1.0) * 100.0;

    // FTL, NAND and DVP layers on the same configuration.
    {
        auto src = scan.factory();
        const FunctionalCost cost = functionalReplay(log, cfg, *src);
        m["ftl.ns_per_op"] = cost.ftlNsPerOp;
        m["nand.ns_per_op"] = cost.nandNsPerOp;
    }
    m["dvp.ns_per_op"] = dvpReplay(log, cfg, records);

    // Grid layer: the scan-once sweep against its cells run one by
    // one. Cells pull inline, so `jobs` cells use `jobs` threads.
    const std::string grid = args.getString("grid");
    const unsigned jobs = ThreadPool::resolveJobs(args.getUint("jobs"));
    ExperimentOptions gopts;
    gopts.poolCapacity = pool;
    gopts.queueDepth = depth;
    gopts.prefetchBatch = 0;
    const auto sweep = [&] {
        return runGridOnScannedTrace(scan, parseGridSpec(grid), cfg.system,
                                     gopts, jobs, 512ull << 20, workdir);
    };
    std::vector<std::string> grid_checks;
    m["grid.parallel_eff"] = 0.0;
    if (!grid.empty()) {
        std::vector<GridCellResult> swept;
        const double grid_wall =
            span_s("grid.run", [&] { swept = sweep(); });
        TraceSpool cell_spool(scan, 512ull << 20, workdir);
        ScannedTrace spooled = scan;
        spooled.factory = cell_spool.factory();
        double standalone = 0;
        const std::vector<GridCell> cells =
            expandGrid(parseGridSpec(grid), cfg.system, gopts);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            SimResult alone;
            standalone += span_s("grid.standalone_cell", [&] {
                alone = runSystemOnScannedTrace(spooled, cells[i].system,
                                                cells[i].opts);
            });
            if (alone.toStatSet().format() !=
                swept[i].result.toStatSet().format())
                grid_checks.push_back("grid cell " + cells[i].label +
                                      " differs from its standalone run");
        }
        m["grid.parallel_eff"] = ratio(standalone, jobs * grid_wall);
    }

    // Memory: peak heap growth of one more drive run, or of one more
    // sweep per concurrent cell, whose times are discarded.
    {
        const double base = heapMb();
        PeakHeap peak;
        if (grid.empty()) {
            runCell(log, "mem.cell", cfg, replay, scan.factory, prefetch);
            m["mem.cell_mb"] = peak.stop() - base;
        } else {
            span_s("mem.grid", sweep);
            m["mem.cell_mb"] = (peak.stop() - base) / jobs;
        }
    }

    log.write(span_path);

    std::ofstream os(out_path);
    if (!os)
        zombie_fatal("cannot write result: ", out_path);
    os << std::setprecision(12);
    os << "{\"cell\":" << cellJson(cell) << ",\"sampled_statset\":"
       << jsonString(sampled.result.toStatSet().format())
       << ",\"window_s\":" << cell.window() << ",\"grid_errors\":[";
    for (std::size_t i = 0; i < grid_checks.size(); ++i)
        os << (i ? "," : "") << jsonString(grid_checks[i]);
    os << "],\"metrics\":{";
    bool first = true;
    for (const auto &[name, value] : m) {
        os << (first ? "" : ",") << jsonString(name) << ":" << value;
        first = false;
    }
    os << "},\"ledger\":" << log.ledgerJson() << "}\n";
    return 0;
}
