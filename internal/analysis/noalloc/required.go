package noalloc

import "strings"

// requiredAnnotations lists, per package, the functions that constitute the
// ADSM fault hot path (the 0 allocs/op property measured by the
// AllocsPerRun tests in internal/core and internal/sim) and its DMAs,
// fetch and write-back alike. These must carry
// the //adsm:noalloc directive: removing the annotation — not just
// violating it — is a diagnostic, so the static and dynamic checks can
// never silently name different function sets.
var requiredAnnotations = map[string][]string{
	"repro/internal/core": {
		"(*Manager).handleFault",
		"(*Manager).protoFault",
		"(*Manager).fetchRunSync",
		"(*Manager).faultRunLen",
		"(*Manager).setState",
		"(*Manager).setProtRun",
		"(*Manager).dmaSync",
		"(*registry).objectAt",
		"(*registry).blockAt",
		"regShardOf",
		"(*spanSet).find",
		"searchDepth",
		"(*Object).rank",
		"(*Object).markWritten",
		"(*Object).settle",
		"(*Object).writeBackMask",
		"(*rollingCache).push",
		"resolveFault",
		"(*Manager).emit",
		"(*statsCounters).apply",
	},
	"repro/internal/accel": {
		"(*Device).TryMemcpyH2DAsync",
		"(*Device).TryMemcpyD2HAsync",
		"(*Device).dmaAttempt",
	},
	"repro/internal/sim": {
		"(*Breakdown).Add",
	},
	"repro/internal/oplog": {
		"(*Ring).Record",
	},
}

// requiredSet returns the required-annotation set for the package path.
// Testdata packages can exercise the table through the "noalloc/required"
// suffix used by the golden tests; the "noalloc/requiredgone" suffix
// additionally lists a function that is never declared, exercising the
// vanished-entry diagnostic.
func requiredSet(pkgPath string) map[string]bool {
	keys, ok := requiredAnnotations[pkgPath]
	if !ok {
		switch {
		case strings.HasSuffix(pkgPath, "noalloc/requiredgone"):
			keys = []string{"hotRequired", "vanishedHelper"}
		case strings.HasSuffix(pkgPath, "noalloc/required"):
			keys = []string{"hotRequired"}
		}
	}
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}
