#include "formats/registry.hh"

#include "common/status.hh"
#include "formats/bcsr_format.hh"
#include "formats/bitmap_format.hh"
#include "formats/coo_format.hh"
#include "formats/csc_format.hh"
#include "formats/csr_format.hh"
#include "formats/dense_format.hh"
#include "formats/dia_format.hh"
#include "formats/dok_format.hh"
#include "formats/ell_format.hh"
#include "formats/ellcoo_format.hh"
#include "formats/jds_format.hh"
#include "formats/lil_format.hh"
#include "formats/sell_format.hh"
#include "formats/sellcs_format.hh"

namespace copernicus {

FormatRegistry::FormatRegistry(const FormatParams &params)
{
    codecs.push_back(std::make_unique<DenseCodec>());
    codecs.push_back(std::make_unique<CsrCodec>());
    codecs.push_back(std::make_unique<BcsrCodec>(params.bcsrBlock));
    codecs.push_back(std::make_unique<CscCodec>());
    codecs.push_back(std::make_unique<CooCodec>());
    codecs.push_back(std::make_unique<DokCodec>());
    codecs.push_back(std::make_unique<LilCodec>());
    codecs.push_back(std::make_unique<EllCodec>(params.ellMinWidth));
    codecs.push_back(std::make_unique<SellCodec>(params.sellSlice));
    codecs.push_back(std::make_unique<DiaCodec>());
    codecs.push_back(std::make_unique<JdsCodec>());
    codecs.push_back(std::make_unique<EllCooCodec>(params.ellCooWidth));
    codecs.push_back(std::make_unique<SellCsCodec>(params.sellSlice,
                                                   params.sellCsWindow));
    codecs.push_back(std::make_unique<BitmapCodec>());
}

const FormatCodec &
FormatRegistry::codec(FormatKind kind) const
{
    for (const auto &entry : codecs) {
        if (entry->kind() == kind)
            return *entry;
    }
    panic("FormatRegistry: no codec registered for kind");
}

std::string
formatParamsViolation(const FormatParams &params, FormatKind kind)
{
    switch (kind) {
      case FormatKind::BCSR:
        return BcsrCodec::paramsViolation(params.bcsrBlock);
      case FormatKind::ELL:
        return EllCodec::paramsViolation(params.ellMinWidth);
      case FormatKind::SELL:
        return SellCodec::paramsViolation(params.sellSlice);
      case FormatKind::ELLCOO:
        return EllCooCodec::paramsViolation(params.ellCooWidth);
      case FormatKind::SELLCS:
        return SellCsCodec::paramsViolation(params.sellSlice,
                                            params.sellCsWindow);
      default:
        return {};
    }
}

const FormatRegistry &
defaultRegistry()
{
    static const FormatRegistry registry;
    return registry;
}

const FormatCodec &
defaultCodec(FormatKind kind)
{
    return defaultRegistry().codec(kind);
}

} // namespace copernicus
