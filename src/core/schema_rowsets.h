// Schema rowsets: "the standard mechanism in OLE DB whereby a provider
// describes information about itself to potential consumers" (paper §3) —
// supported capabilities, algorithm parameters, installed models, model
// columns, and model content. They are read-only tables of the relational
// engine, so every consumer reads them with a plain SELECT through the one
// command pipe:
//
//   SELECT MODEL_NAME, CASE_COUNT FROM $system.DMSCHEMA_MINING_MODELS
//   SELECT * FROM [Age Prediction].CONTENT WHERE NODE_TYPE = 'Leaf'
//
// The provider hands BuildSystemTable to its rel::Database as the resolver,
// so WHERE, ORDER BY, TOP, projection and joins come from the engine.

#ifndef DMX_CORE_SCHEMA_ROWSETS_H_
#define DMX_CORE_SCHEMA_ROWSETS_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/rowset.h"
#include "core/catalog.h"
#include "model/service_registry.h"
#include "relational/table.h"

namespace dmx {

/// Generates the schema rowset that `$system.<name>` reads (the name is
/// case-insensitive); NotFound for another name. The six are:
///   DMSCHEMA_MINING_SERVICES            one row per installed service
///   DMSCHEMA_MINING_SERVICE_PARAMETERS  one row per (service, parameter)
///   DMSCHEMA_MINING_MODELS              one row per model in the catalog
///   DMSCHEMA_MINING_COLUMNS             (model, column), nested included
///   DMSCHEMA_MINING_MODEL_CONTENT       every trained model's content nodes
///   DMSCHEMA_MINING_FUNCTIONS           one row per prediction UDF
Result<Rowset> GetSchemaRowset(std::string_view name,
                               const ServiceRegistry& services,
                               const ModelCatalog& models);

/// The MINING_MODEL_CONTENT rows of one model (SELECT * FROM m.CONTENT).
Result<Rowset> GetContentRowset(const MiningModel& model);

/// The model that a `<model>.CONTENT` table name reads; nullopt for a name
/// of any other form.
std::optional<std::string> ContentModelName(const std::string& table);

/// The read-only table `name` stands for, built from the catalogs for one
/// statement: a `$system.DMSCHEMA_*` schema rowset or `<model>.CONTENT`.
/// NotFound for any other name and for an unknown model.
Result<std::unique_ptr<rel::Table>> BuildSystemTable(
    const std::string& name, const ServiceRegistry& services,
    const ModelCatalog& models);

}  // namespace dmx

#endif  // DMX_CORE_SCHEMA_ROWSETS_H_
