#include "lfll/telemetry/metrics.hpp"

#include "lfll/telemetry/op_counters.hpp"

namespace lfll::telemetry {

double metric_row::quantile(double q) const noexcept {
    if (hist_count == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(hist_count - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < hist_buckets.size(); ++b) {
        seen += hist_buckets[b];
        if (seen > rank) {
            return static_cast<double>(histogram::bucket_bound(static_cast<int>(b)));
        }
    }
    return static_cast<double>(histogram::bucket_bound(histogram::bucket_count - 1));
}

registry& registry::global() {
    static registry r;
    return r;
}

counter& registry::get_counter(const std::string& name, const std::string& labels) {
    std::lock_guard lk(mu_);
    entry& e = metrics_[{name, labels}];
    if (e.c == nullptr) {
        e.kind = metric_kind::counter;
        e.c = std::make_unique<counter>();
    }
    return *e.c;
}

gauge& registry::get_gauge(const std::string& name, const std::string& labels) {
    std::lock_guard lk(mu_);
    entry& e = metrics_[{name, labels}];
    if (e.g == nullptr) {
        e.kind = metric_kind::gauge;
        e.g = std::make_unique<gauge>();
    }
    return *e.g;
}

histogram& registry::get_histogram(const std::string& name, const std::string& labels) {
    std::lock_guard lk(mu_);
    entry& e = metrics_[{name, labels}];
    if (e.h == nullptr) {
        e.kind = metric_kind::histogram;
        e.h = std::make_unique<histogram>();
    }
    return *e.h;
}

std::vector<metric_row> registry::snapshot() const {
    std::vector<metric_row> rows;
    {
        std::lock_guard lk(mu_);
        rows.reserve(metrics_.size() + 11);
        for (const auto& [key, e] : metrics_) {
            metric_row r;
            r.name = key.first;
            r.labels = key.second;
            r.kind = e.kind;
            switch (e.kind) {
                case metric_kind::counter:
                    r.value = static_cast<double>(e.c->value());
                    break;
                case metric_kind::gauge:
                    r.value = static_cast<double>(e.g->value());
                    break;
                case metric_kind::histogram:
                    r.hist_count = e.h->count();
                    r.hist_sum = e.h->sum();
                    r.hist_buckets = e.h->buckets();
                    r.value = static_cast<double>(r.hist_count);
                    break;
            }
            rows.push_back(std::move(r));
        }
    }

    // Fold the hot-path backend in as counter rows.
    const op_counters oc = instrument::snapshot();
    const std::pair<const char*, std::uint64_t> op_rows[] = {
        {"lfll_op_safe_reads_total", oc.safe_reads},
        {"lfll_op_saferead_retries_total", oc.saferead_retries},
        {"lfll_op_cas_attempts_total", oc.cas_attempts},
        {"lfll_op_cas_failures_total", oc.cas_failures},
        {"lfll_op_insert_retries_total", oc.insert_retries},
        {"lfll_op_delete_retries_total", oc.delete_retries},
        {"lfll_op_aux_hops_total", oc.aux_hops},
        {"lfll_op_aux_compactions_total", oc.aux_compactions},
        {"lfll_op_cells_traversed_total", oc.cells_traversed},
        {"lfll_op_traverse_hops_total", oc.traverse_hops},
        {"lfll_op_batch_fallbacks_total", oc.batch_fallbacks},
        {"lfll_op_nodes_allocated_total", oc.nodes_allocated},
        {"lfll_op_nodes_reclaimed_total", oc.nodes_reclaimed},
    };
    for (const auto& [name, v] : op_rows) {
        metric_row r;
        r.name = name;
        r.kind = metric_kind::counter;
        r.value = static_cast<double>(v);
        rows.push_back(std::move(r));
    }
    return rows;
}

void registry::reset() {
    {
        std::lock_guard lk(mu_);
        for (auto& [key, e] : metrics_) {
            if (e.c != nullptr) e.c->clear();
            if (e.h != nullptr) e.h->clear();
        }
    }
    instrument::reset();
}

}  // namespace lfll::telemetry
