// Package ticketdb simulates the ticketing system of §III: it synthesizes
// human-style problem-ticket text (description + resolution) for crash
// tickets of each failure class and for the large background population of
// non-crash tickets, and provides a queryable ticket store.
//
// The text generator is intentionally noisy: classes share vocabulary
// ("server", "reboot", "unresponsive" appear across classes and in routine
// maintenance tickets) and a fraction of tickets is written vaguely, so the
// downstream k-means classification is a genuinely hard problem with
// accuracy in the ~87% regime the paper reports — not a toy.
package ticketdb

import (
	"strings"

	"failscope/internal/model"
	"failscope/internal/xrand"
)

// template is a set of alternative phrasings; Render picks one of each
// slot and substitutes {host}.
type template struct {
	desc []string
	res  []string
}

var crashTemplates = map[model.FailureClass]template{
	model.ClassHardware: {
		desc: []string{
			"server {host} unresponsive, hardware fault suspected on primary controller",
			"{host} down hard, amber fault led on chassis, disk array offline",
			"host {host} crashed, raid battery failure alarm raised by management module",
			"{host} not reachable, predictive disk failure escalated to outage",
			"machine {host} powered itself off, psu failure code logged",
			"{host} unreachable after memory dimm error storm, system halted",
		},
		res: []string{
			"replaced faulty disk drive and rebuilt array, server restored",
			"swapped failed power supply unit, verified redundant psu, host back online",
			"replaced raid controller battery, storage online, closing",
			"faulty memory module replaced, diagnostics clean, returned to service",
			"motherboard replaced under vendor contract, server rebuilt and restored",
		},
	},
	model.ClassNetwork: {
		desc: []string{
			"server {host} unreachable over network, interface errors on uplink",
			"{host} lost connectivity, switch port flapping reported by monitoring",
			"host {host} isolated, vlan misconfiguration after change window",
			"{host} not responding to ping, nic link down on both adapters",
			"network outage affecting {host}, routing table inconsistent",
		},
		res: []string{
			"replaced faulty network cable and reset switch port, connectivity restored",
			"corrected vlan assignment on access switch, host reachable again",
			"nic firmware updated and link renegotiated, network fix applied",
			"switch linecard replaced by network team, uplink stable",
			"restored routing configuration, verified reachability, closing",
		},
	},
	model.ClassSoftware: {
		desc: []string{
			"server {host} hung, operating system not responding to console",
			"{host} unresponsive, critical service agent crashed and wedged the os",
			"application fault on {host}, kernel panic recorded in system log",
			"{host} frozen, middleware process leak exhausted system memory",
			"os on {host} stuck at high load, scheduler hung, no login possible",
			"{host} down, database service deadlock cascaded to system hang",
		},
		res: []string{
			"restarted hung service agent and applied software patch, os stable",
			"applied os hotfix for kernel panic, monitoring for recurrence",
			"killed leaking process, upgraded middleware to fixed level",
			"software fix deployed, application service restored and validated",
			"reconfigured service dependencies and restarted stack, resolved",
		},
	},
	model.ClassPower: {
		desc: []string{
			"power outage in rack row, server {host} lost both feeds",
			"{host} down due to pdu failure, breaker tripped in distribution panel",
			"ups failure caused power loss on {host} and neighbouring hosts",
			"scheduled electrical maintenance overran, {host} powered down",
			"{host} offline after facility power event, generator transfer failed",
		},
		res: []string{
			"electrical fix applied to pdu, power restored, servers brought up",
			"breaker reset by facilities, verified dual feed, host online",
			"ups battery string replaced, power stable, closing incident",
			"facility power restored after electrical repair, all hosts up",
		},
	},
	model.ClassReboot: {
		desc: []string{
			"server {host} rebooted unexpectedly, no operator action recorded",
			"{host} restarted without change record, uptime counter reset",
			"unexpected reboot of {host} detected by monitoring agent",
			"{host} bounced, spontaneous restart, came back by itself",
			"virtual machine {host} restarted when underlying host recycled",
		},
		res: []string{
			"server resumed service after reboot, no further action required",
			"verified system healthy post restart, cause logged as unexpected reboot",
			"host came back online automatically, watching for recurrence",
			"confirmed hypervisor recycle caused restart, service restored",
		},
	},
	// ClassOther tickets are deliberately vague — the paper attributes its
	// 53% "other" share to tickets whose description and resolution lack
	// the detail needed for classification.
	model.ClassOther: {
		desc: []string{
			"server {host} down",
			"{host} not responding, user reported outage",
			"host {host} unreachable, details not available",
			"{host} crashed, cause unknown",
			"monitoring alert, {host} unavailable",
			"{host} outage reported, escalated by service desk",
		},
		res: []string{
			"restored",
			"server back online, closing",
			"issue no longer present, resolved",
			"fixed by support team",
			"service restored, root cause not determined",
		},
	},
}

// nonCrashTemplates is the background traffic: the >94% of problem tickets
// that are not server failures.
var nonCrashTemplates = []template{
	{ // capacity / disk space
		desc: []string{
			"filesystem on {host} above 90 percent, disk space warning",
			"{host} low on disk space, cleanup requested",
			"database archive volume filling up on {host}",
		},
		res: []string{
			"cleaned old log files, space reclaimed",
			"extended filesystem, utilization normal",
			"archived historical data, closing",
		},
	},
	{ // access / account
		desc: []string{
			"access request for application account on {host}",
			"password reset needed for service account on {host}",
			"user cannot login to application on {host}, permission denied",
		},
		res: []string{
			"account created and access granted",
			"password reset completed, user verified login",
			"group membership corrected, access working",
		},
	},
	{ // batch / backup
		desc: []string{
			"nightly backup failed on {host}, media error reported",
			"batch job overrun on {host}, schedule delayed",
			"backup agent on {host} reports incomplete save set",
		},
		res: []string{
			"backup rerun successfully, media rotated",
			"job rescheduled, completed within window",
			"agent reconfigured, full backup verified",
		},
	},
	{ // monitoring noise / thresholds
		desc: []string{
			"cpu utilization threshold exceeded on {host}, performance alert",
			"memory usage high on {host}, monitoring threshold breached",
			"paging activity alert on {host}, response time degraded",
		},
		res: []string{
			"threshold adjusted after review, no impact",
			"workload rebalanced, utilization normal",
			"false alarm, monitoring profile tuned",
		},
	},
	{ // maintenance / patching (shares "reboot" vocabulary with crashes)
		desc: []string{
			"scheduled patch window for {host}, reboot planned",
			"firmware update requested on {host} during maintenance",
			"os patching on {host}, controlled restart required",
		},
		res: []string{
			"patches applied and server rebooted as scheduled",
			"firmware updated, planned restart completed",
			"maintenance completed successfully in window",
		},
	},
	{ // certificates / middleware config
		desc: []string{
			"ssl certificate expiring on {host}, renewal required",
			"application configuration change request for {host}",
			"queue manager channel down on {host}, messages backing up",
		},
		res: []string{
			"certificate renewed and deployed",
			"configuration change implemented and validated",
			"channel restarted, queue drained",
		},
	},
}

// Renderer produces ticket text deterministically from the stream each
// call is handed. It keeps no RNG state of its own, so callers holding
// independent per-ticket streams may render concurrently.
type Renderer struct {
	// vagueProb is the chance a *classified* crash ticket is nevertheless
	// written vaguely, which is what caps classifier accuracy below 100%.
	vagueProb float64
}

// NewRenderer returns a text renderer. vagueProb in [0,1] controls how
// often classified crash tickets get uninformative text.
func NewRenderer(vagueProb float64) *Renderer {
	return &Renderer{vagueProb: vagueProb}
}

func pick(r *xrand.RNG, opts []string) string { return opts[r.Intn(len(opts))] }

func fill(s string, host model.MachineID) string {
	return strings.ReplaceAll(s, "{host}", string(host))
}

// CrashWith renders description and resolution text for a crash ticket of
// the given class on the given server, drawing from r.
func (rd *Renderer) CrashWith(r *xrand.RNG, class model.FailureClass, host model.MachineID) (desc, res string) {
	t, ok := crashTemplates[class]
	if !ok {
		t = crashTemplates[model.ClassOther]
	}
	if class != model.ClassOther && r.Bool(rd.vagueProb) {
		// A sloppy writer: informative class, vague text.
		vague := crashTemplates[model.ClassOther]
		return fill(pick(r, vague.desc), host), fill(pick(r, vague.res), host)
	}
	return fill(pick(r, t.desc), host), fill(pick(r, t.res), host)
}

// NonCrashWith renders text for a background (non-failure) ticket,
// drawing from r.
func (rd *Renderer) NonCrashWith(r *xrand.RNG, host model.MachineID) (desc, res string) {
	t := nonCrashTemplates[r.Intn(len(nonCrashTemplates))]
	return fill(pick(r, t.desc), host), fill(pick(r, t.res), host)
}
