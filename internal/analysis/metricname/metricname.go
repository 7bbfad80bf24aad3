// Package metricname enforces the repository's metric naming
// convention on literal metric names.
//
// Every counter, gauge and histogram name follows `layer.noun[_unit]`:
// a layer prefix naming the subsystem that owns the metric (one of the
// knownLayers allow-list — server, client, core, repl, gw, trace,
// blackbox, ...), one dot, and a lowercase snake_case noun with an
// optional trailing unit (`_ns`, `_bytes`). One flat namespace spans
// the whole stack — a replica's registry mixes repl.lag with server.ops
// and dram.hits — so a name that free-rides outside the convention
// either collides with a neighbour or becomes unfindable on a
// dashboard, and a well-formed name under an unrecognized layer is a
// typo until the allow-list says otherwise. The analyzer checks every
// string literal passed as the name argument to the telemetry
// registries; names built at runtime are out of scope.
package metricname

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"kvdirect/internal/analysis"
)

// nameRe is `layer.noun[_unit]`: lowercase snake_case segments joined
// by exactly one dot.
var nameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*\.[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// knownLayers is the allow-list of layer prefixes. A well-formed name
// under an unknown layer is still a violation: layers are the
// dashboard's top-level grouping, and a typo'd prefix ("serve.ops")
// silently orphans its series. New subsystems add their layer here in
// the same PR that mints the first metric.
var knownLayers = map[string]bool{
	"server":   true, // kvnet server pipeline
	"client":   true, // kvnet client
	"sharded":  true, // kvnet sharded client
	"core":     true, // store/engine model
	"pcie":     true, // PCIe DMA model
	"dram":     true, // NIC DRAM cache model
	"dispatch": true, // load dispatcher
	"ordered":  true, // ordered secondary index
	"ecc":      true, // ECC/scrub model
	"fault":    true, // fault injection
	"repl":     true, // replication + coordinator
	"gw":       true, // memcache gateway
	"trace":    true, // distributed tracing
	"blackbox": true, // flight recorder
	"bench":    true, // benchmark harnesses
	"test":     true, // test-local fixtures
}

// layerList renders the allow-list for the diagnostic, sorted for
// deterministic output.
func layerList() string {
	layers := make([]string, 0, len(knownLayers))
	for l := range knownLayers {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	return strings.Join(layers, " ")
}

// registryTypes are the receiver types whose string-typed first
// argument names a metric.
var registryTypes = map[string]bool{
	"kvdirect/internal/telemetry.Counters": true,
	"kvdirect/internal/telemetry.Gauges":   true,
	"kvdirect/internal/telemetry.Registry": true,
}

// Analyzer is the metricname pass.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "enforce layer.noun[_unit] naming on literal metric names (one-namespace invariant)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if !isRegistryCall(pass.TypesInfo, call) {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind.String() != "STRING" {
			return true // runtime-built name: out of scope
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if !nameRe.MatchString(name) {
			pass.Reportf(lit.Pos(),
				"metric name %q does not match layer.noun[_unit] "+
					"(lowercase snake_case segments joined by one dot, e.g. server.op_latency_ns)",
				name)
			return true
		}
		if layer, _, ok := strings.Cut(name, "."); ok && !knownLayers[layer] {
			pass.Reportf(lit.Pos(),
				"metric name %q uses unknown layer %q (known: %s); add new layers to metricname.knownLayers",
				name, layer, layerList())
		}
		return true
	})
	return nil
}

// isRegistryCall reports whether call is a method on one of the metric
// registries whose first parameter is the metric name.
func isRegistryCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() == 0 {
		return false
	}
	if b, ok := sig.Params().At(0).Type().(*types.Basic); !ok || b.Kind() != types.String {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return registryTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}
