#include "hlsc/schedule.hh"

#include <algorithm>
#include <map>

#include "common/math.hh"
#include "common/status.hh"

namespace copernicus {

Cycles
HlscConstraints::latency(OpKind kind) const
{
    switch (kind) {
      case OpKind::BramLoad: return bramLoadLatency;
      case OpKind::BramStore: return bramStoreLatency;
      case OpKind::IndexArith: return indexArithLatency;
      case OpKind::Add: return addLatency;
      case OpKind::Mul: return mulLatency;
      case OpKind::Compare: return compareLatency;
      case OpKind::Select: return selectLatency;
      case OpKind::HashProbe: return hashProbeLatency;
    }
    panic("HlscConstraints::latency: unknown op kind");
}

namespace {

bool
usesBramPort(OpKind kind)
{
    return kind == OpKind::BramLoad || kind == OpKind::BramStore ||
           kind == OpKind::HashProbe;
}

} // namespace

BodySchedule
scheduleBody(const LoopBody &body, const HlscConstraints &constraints)
{
    BodySchedule schedule;
    schedule.start.assign(body.ops.size(), 0);

    // Port occupancy per (bank, cycle) while placing ops ASAP.
    std::map<std::pair<Index, Cycles>, Index> port_use;
    for (std::size_t i = 0; i < body.ops.size(); ++i) {
        const Op &op = body.ops[i];
        Cycles earliest = 0;
        for (std::size_t dep : op.deps) {
            COPERNICUS_PANIC_IF(dep >= i,
                                "hlsc: op dependencies must point backwards");
            const Op &producer = body.ops[dep];
            earliest = std::max(earliest,
                                schedule.start[dep] +
                                    constraints.latency(producer.kind));
        }
        if (usesBramPort(op.kind)) {
            while (port_use[{op.bank, earliest}] >=
                   constraints.bramPortsPerBank) {
                ++earliest;
            }
            ++port_use[{op.bank, earliest}];
        }
        schedule.start[i] = earliest;
        schedule.depth = std::max(schedule.depth,
                                  earliest +
                                      constraints.latency(op.kind));
    }

    // Resource MII: port demand per bank over ports per bank, per
    // iteration (the steady-state constraint of a pipelined loop).
    std::map<Index, Index> demand;
    for (const Op &op : body.ops)
        if (usesBramPort(op.kind))
            ++demand[op.bank];
    Cycles res_mii = 1;
    for (const auto &[bank, uses] : demand) {
        res_mii = std::max(res_mii,
                           ceilDiv(uses, constraints.bramPortsPerBank));
    }

    // Recurrence MII from loop-carried dependency cycles.
    Cycles rec_mii = 1;
    for (const CarriedDep &dep : body.carried) {
        COPERNICUS_FATAL_IF(
            dep.distance == 0,
            "hlsc: carried dependency distance must be positive");
        rec_mii = std::max(rec_mii, ceilDiv(dep.delay, dep.distance));
    }

    schedule.ii = std::max(res_mii, rec_mii);
    return schedule;
}

} // namespace copernicus
