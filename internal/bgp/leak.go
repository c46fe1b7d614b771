package bgp

import (
	"slices"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
)

// GlobalRT is the pseudo route-target naming the global table: a VRF that
// imports GlobalRT receives global routes (global→VPNv4 leak), and a VRF
// that exports GlobalRT injects its routes into the global table.
const GlobalRT = "global"

// leakTargets returns the tables on the device importing any of the export
// RTs, excluding the source table itself, in deterministic order.
func leakTargets(d *config.Device, srcVRF string, exportRTs []string) []string {
	rtSet := make(map[string]bool, len(exportRTs))
	for _, rt := range exportRTs {
		rtSet[rt] = true
	}
	var out []string
	names := make([]string, 0, len(d.VRFs))
	for name := range d.VRFs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if name == srcVRF {
			continue
		}
		for _, rt := range d.VRFs[name].ImportRTs {
			if rtSet[rt] {
				out = append(out, name)
				break
			}
		}
	}
	// A VRF exporting the GlobalRT leaks into the global table.
	if srcVRF != netmodel.DefaultVRF && rtSet[GlobalRT] {
		out = append(out, netmodel.DefaultVRF)
	}
	return out
}
