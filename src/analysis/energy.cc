#include "analysis/energy.hh"

#include "common/status.hh"

namespace copernicus {

EnergyEstimate
runEnergy(const PowerEstimate &power, double seconds)
{
    COPERNICUS_FATAL_IF(seconds < 0.0, "runEnergy: negative duration");
    EnergyEstimate energy;
    energy.dynamicJ = power.dynamicW() * seconds;
    energy.staticJ = power.staticW * seconds;
    return energy;
}

double
nanojoulesPerNonZero(const EnergyEstimate &energy,
                     std::size_t nnzProcessed)
{
    COPERNICUS_FATAL_IF(nnzProcessed == 0,
                        "nanojoulesPerNonZero: no non-zeros processed");
    return energy.totalJ() * 1e9 / static_cast<double>(nnzProcessed);
}

} // namespace copernicus
