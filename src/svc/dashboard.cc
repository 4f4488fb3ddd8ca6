#include "svc/dashboard.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "audit/shapes.hh"
#include "core/metrics.hh"
#include "exp/analyze.hh"
#include "exp/report.hh"
#include "exp/store.hh"

namespace wwt::svc
{

namespace
{

bool
makeDir(const std::string& path)
{
    return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

std::string
baseName(const std::string& path)
{
    std::string p = path;
    while (!p.empty() && p.back() == '/')
        p.pop_back();
    std::size_t slash = p.find_last_of('/');
    return slash == std::string::npos ? p : p.substr(slash + 1);
}

std::string
htmlEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
fmt(const char* format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

/** Write @p body to @p path, checking the close (a full disk shows
 *  only there); the failure diagnostic goes to stderr. */
bool
writeFile(const std::string& path, const std::string& body,
          std::ostream& log)
{
    if (!core::writeFileChecked(path,
                                [&](std::ostream& os) { os << body; }))
        return false;
    log << "serve: wrote " << path << "\n";
    return true;
}

/** Shared <head>: one embedded stylesheet, no external fetches. */
const char* const kHead =
    "<!doctype html>\n<html lang=\"en\">\n<head>\n"
    "<meta charset=\"utf-8\">\n"
    "<title>wwtcmp campaign dashboard</title>\n"
    "<style>\n"
    "body{font:14px/1.45 system-ui,sans-serif;margin:2em;"
    "max-width:80em}\n"
    "table{border-collapse:collapse;margin:1em 0}\n"
    "th,td{border:1px solid #bbb;padding:.25em .6em;"
    "text-align:right}\n"
    "th:first-child,td:first-child{text-align:left}\n"
    "td.s-pass{background:#e6f4e6}td.s-fail,td.s-crash,"
    "td.s-timeout{background:#f8dede}\n"
    "td.cache{color:#555;font-style:italic}\n"
    ".note{color:#555;font-size:90%}\n"
    "svg{vertical-align:middle}\n"
    "</style>\n</head>\n<body>\n";

const char* const kFoot = "</body>\n</html>\n";

/**
 * Inline SVG sparkline over @p ys (NaN-free, oldest first). Flat or
 * single-point series render as a horizontal line.
 */
std::string
sparkline(const std::vector<double>& ys)
{
    const int w = 220, h = 36, pad = 3;
    double lo = ys[0], hi = ys[0];
    for (double y : ys) {
        lo = std::min(lo, y);
        hi = std::max(hi, y);
    }
    double span = hi - lo;
    std::ostringstream os;
    os << "<svg width=\"" << w << "\" height=\"" << h
       << "\" role=\"img\"><polyline fill=\"none\" stroke=\"#36c\" "
          "stroke-width=\"1.5\" points=\"";
    for (std::size_t i = 0; i < ys.size(); ++i) {
        double x =
            ys.size() == 1
                ? w / 2.0
                : pad + (w - 2.0 * pad) * static_cast<double>(i) /
                            static_cast<double>(ys.size() - 1);
        double yn = span == 0 ? 0.5 : (ys[i] - lo) / span;
        double y = h - pad - (h - 2.0 * pad) * yn;
        os << fmt("%.1f", x) << ',' << fmt("%.1f", y) << ' ';
    }
    os << "\"/></svg>";
    return os.str();
}

std::string
renderCampaignHtml(const std::string& dir, const std::string& name,
                   const std::map<std::string, exp::RunRecord>& latest)
{
    int pass = 0, bad = 0, cached = 0, shapeViol = 0, shapeScen = 0;
    for (const auto& [id, rec] : latest) {
        if (rec.status == exp::RunStatus::Pass)
            ++pass;
        else
            ++bad;
        if (rec.cached)
            ++cached;
        if (rec.shapeViolations > 0) {
            shapeViol += rec.shapeViolations;
            ++shapeScen;
        }
    }

    // Category column order: first record's key order (the records
    // all write the stats::Category enum order).
    std::vector<std::string> cats;
    for (const auto& [id, rec] : latest) {
        if (!rec.cycles.empty()) {
            for (const auto& [k, v] : rec.cycles)
                cats.push_back(k);
            break;
        }
    }

    std::ostringstream os;
    os << kHead;
    os << "<h1>campaign " << htmlEscape(name) << "</h1>\n";
    os << "<p><a href=\"../index.html\">all campaigns</a> &middot; "
          "<a href=\"report.json\">report.json</a> &middot; "
          "<a href=\"analysis.json\">analysis.json</a> &middot; "
          "<a href=\"analysis.txt\">analysis.txt</a></p>\n";
    os << "<p>store <code>" << htmlEscape(dir) << "</code>: "
       << latest.size() << " scenario(s), " << pass << " pass, " << bad
       << " not passing, " << cached << " cached. Shape gate: ";
    if (shapeViol == 0)
        os << "clean.";
    else
        os << shapeViol << " violation(s) across " << shapeScen
           << " scenario(s).";
    os << "</p>\n";

    // --- cycle table -------------------------------------------------
    os << "<h2>cycles per processor (Mcycles)</h2>\n<table>\n<tr>"
          "<th>scenario</th><th>status</th><th>source</th>"
          "<th>shape</th><th>total</th>";
    for (const std::string& c : cats)
        os << "<th>" << htmlEscape(c) << "</th>";
    os << "<th>wall (s)</th></tr>\n";
    for (const auto& [id, rec] : latest) {
        const char* status = exp::runStatusName(rec.status);
        os << "<tr><td>" << htmlEscape(id) << "</td><td class=\"s-"
           << status << "\">" << status << "</td>";
        if (rec.cached) {
            os << "<td class=\"cache\">cache " << htmlEscape(
                      rec.cacheSource)
               << ":" << rec.cacheLine << "</td>";
        } else {
            os << "<td>run</td>";
        }
        os << "<td>" << rec.shapeViolations << "</td>";
        os << "<td>" << fmt("%.2f", rec.totalCyclesPerProc / 1e6)
           << "</td>";
        for (const std::string& c : cats) {
            double v = 0;
            for (const auto& [k, cv] : rec.cycles) {
                if (k == c) {
                    v = cv;
                    break;
                }
            }
            os << "<td>" << fmt("%.2f", v / 1e6) << "</td>";
        }
        // LAMMPS-note rule: a cached row has no local wall time; an
        // em dash is not a measurement, 0.00 would pretend to be.
        if (rec.cached)
            os << "<td class=\"cache\">&mdash;</td>";
        else
            os << "<td>" << fmt("%.2f", rec.wallSec) << "</td>";
        os << "</tr>\n";
    }
    os << "</table>\n";

    // --- host-phase profile -----------------------------------------
    std::map<std::string, double> phases;
    for (const auto& [id, rec] : latest) {
        if (rec.cached)
            continue; // zeros by construction, not measurements
        for (const auto& [k, v] : rec.hostPhases)
            phases[k] += v;
    }
    os << "<h2>host-phase profile</h2>\n";
    if (phases.empty()) {
        os << "<p class=\"note\">no host-phase data (campaign ran "
              "without <code>--host-prof</code>, or every record is "
              "a cache hit).</p>\n";
    } else {
        os << "<table>\n<tr><th>phase</th><th>seconds "
              "(summed over executed runs)</th></tr>\n";
        for (const auto& [k, v] : phases)
            os << "<tr><td>" << htmlEscape(k) << "</td><td>"
               << fmt("%.3f", v) << "</td></tr>\n";
        os << "</table>\n";
    }

    // --- cache provenance -------------------------------------------
    if (cached > 0) {
        os << "<h2>cache provenance</h2>\n<table>\n"
              "<tr><th>scenario</th><th>source</th><th>line</th>"
              "<th>original wall (s)</th></tr>\n";
        for (const auto& [id, rec] : latest) {
            if (!rec.cached)
                continue;
            os << "<tr><td>" << htmlEscape(id) << "</td><td>"
               << htmlEscape(rec.cacheSource) << "</td><td>"
               << rec.cacheLine << "</td><td>"
               << fmt("%.2f", rec.cacheWallSec) << "</td></tr>\n";
        }
        os << "</table>\n";
    }

    os << "<p class=\"note\">Every number above either was measured "
          "by this campaign's own runs or carries its source next to "
          "it (the provenance column); host-time cells for cached "
          "rows are dashes, not zeros. Rendering is "
          "byte-deterministic: re-rendering an unchanged store "
          "reproduces this page exactly.</p>\n";
    os << kFoot;
    return os.str();
}

/** One campaign's root-index row data. */
struct CampaignSummary {
    std::string name;
    std::string dir;
    std::size_t scenarios = 0;
    int pass = 0;
    int cached = 0;
};

std::string
renderRootHtml(const std::vector<CampaignSummary>& campaigns,
               const std::string& trajectory_json)
{
    std::ostringstream os;
    os << kHead;
    os << "<h1>wwtcmp campaign service</h1>\n";
    os << "<h2>campaigns</h2>\n<table>\n<tr><th>campaign</th>"
          "<th>store</th><th>scenarios</th><th>pass</th>"
          "<th>cached</th></tr>\n";
    for (const CampaignSummary& c : campaigns) {
        os << "<tr><td><a href=\"" << htmlEscape(c.name)
           << "/index.html\">" << htmlEscape(c.name)
           << "</a></td><td><code>" << htmlEscape(c.dir)
           << "</code></td><td>" << c.scenarios << "</td><td>"
           << c.pass << "</td><td>" << c.cached << "</td></tr>\n";
    }
    os << "</table>\n";

    // --- perf trajectory sparklines ---------------------------------
    if (!trajectory_json.empty()) {
        os << "<h2>perf trajectory</h2>\n";
        try {
            audit::JsonValue doc = audit::parseJson(trajectory_json);
            const audit::JsonValue* recs = doc.find("records");
            // benchmark -> ns/op series, oldest record first.
            std::map<std::string, std::vector<double>> series;
            std::size_t nrecords = 0;
            if (recs &&
                recs->kind == audit::JsonValue::Kind::Array) {
                nrecords = recs->array.size();
                for (const audit::JsonValue& r : recs->array) {
                    const audit::JsonValue* results =
                        r.find("results");
                    if (!results)
                        continue;
                    for (const auto& [bench, v] : results->object) {
                        const audit::JsonValue* ns =
                            v.find("ns_per_op");
                        if (ns &&
                            ns->kind ==
                                audit::JsonValue::Kind::Number)
                            series[bench].push_back(ns->number);
                    }
                }
            }
            if (series.empty()) {
                os << "<p class=\"note\">trajectory file holds no "
                      "records.</p>\n";
            } else {
                os << "<p class=\"note\">ns/op per committed "
                      "trajectory record ("
                   << nrecords
                   << " record(s), oldest to newest; lower is "
                      "better).</p>\n<table>\n"
                      "<tr><th>benchmark</th><th>trend</th>"
                      "<th>first</th><th>latest</th></tr>\n";
                for (const auto& [bench, ys] : series) {
                    os << "<tr><td>" << htmlEscape(bench) << "</td>"
                       << "<td>" << sparkline(ys) << "</td><td>"
                       << fmt("%.4g", ys.front()) << "</td><td>"
                       << fmt("%.4g", ys.back()) << "</td></tr>\n";
                }
                os << "</table>\n";
            }
        } catch (const std::exception& e) {
            os << "<p class=\"note\">trajectory file unreadable: "
               << htmlEscape(e.what()) << "</p>\n";
        }
    }

    os << kFoot;
    return os.str();
}

} // namespace

int
buildDashboard(const DashboardOptions& opts, std::ostream& log)
{
    if (!makeDir(opts.outDir)) {
        log << "serve: cannot create " << opts.outDir << ": "
            << std::strerror(errno) << "\n";
        return 1;
    }

    std::vector<CampaignSummary> summaries;
    std::set<std::string> usedNames;
    int rc = 0;
    for (const std::string& dir : opts.campaignDirs) {
        std::string name = baseName(dir);
        // Two stores sharing a basename get deterministic suffixes.
        std::string unique = name;
        for (int i = 2; usedNames.count(unique); ++i)
            unique = name + "-" + std::to_string(i);
        usedNames.insert(unique);

        exp::Store store(dir);
        std::map<std::string, exp::RunRecord> latest =
            store.loadLatest();
        if (latest.empty()) {
            log << "serve: " << dir
                << ": no records (run the campaign first)\n";
            rc = 1;
            continue;
        }
        std::string sub = opts.outDir + "/" + unique;
        if (!makeDir(sub)) {
            log << "serve: cannot create " << sub << "\n";
            rc = 1;
            continue;
        }

        std::ostringstream report;
        exp::reportCampaign(dir, report, exp::ReportFormat::Json);
        if (!writeFile(sub + "/report.json", report.str(), log))
            rc = 1;

        exp::AnalyzeOptions aopts;
        aopts.jsonPath = sub + "/analysis.json";
        std::ostringstream atext;
        if (exp::analyzeCampaign(dir, aopts, atext) > 1)
            rc = 1;
        if (!writeFile(sub + "/analysis.txt", atext.str(), log))
            rc = 1;

        if (!writeFile(sub + "/index.html",
                       renderCampaignHtml(dir, unique, latest), log))
            rc = 1;

        CampaignSummary s;
        s.name = unique;
        s.dir = dir;
        s.scenarios = latest.size();
        for (const auto& [id, rec] : latest) {
            if (rec.status == exp::RunStatus::Pass)
                ++s.pass;
            if (rec.cached)
                ++s.cached;
        }
        summaries.push_back(std::move(s));
    }

    std::string trajectory;
    if (!opts.trajectoryPath.empty()) {
        std::ifstream tf(opts.trajectoryPath, std::ios::binary);
        if (tf) {
            std::ostringstream buf;
            buf << tf.rdbuf();
            trajectory = buf.str();
        } else {
            log << "serve: no trajectory file at "
                << opts.trajectoryPath << " (sparkline skipped)\n";
        }
    }

    if (!writeFile(opts.outDir + "/index.html",
                   renderRootHtml(summaries, trajectory), log))
        rc = 1;
    return rc;
}

} // namespace wwt::svc
