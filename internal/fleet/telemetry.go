package fleet

import (
	"insure/internal/telemetry"
)

// fleetTelemetry mirrors the coordinator's accounting into a live registry.
// Fleet-wide series are plain instruments updated as events happen;
// per-site series carry a site label. Everything is published from the
// coordinator's single-threaded control pass, so scrapes (which read
// atomics) never race the run.
type fleetTelemetry struct {
	sites     *telemetry.Gauge
	sitesLive *telemetry.Gauge

	migrations    *telemetry.Counter
	jobsMoved     *telemetry.Counter
	imagesShipped *telemetry.Counter
	restored      *telemetry.Counter
	sitesLost     *telemetry.Counter

	migratedGB   *telemetry.Gauge
	checkpointGB *telemetry.Gauge
	energyWh     *telemetry.Gauge
	costUSD      *telemetry.Gauge

	// Degraded-WAN series.
	heals         *telemetry.Counter
	reroutes      *telemetry.Counter
	chunkDrops    *telemetry.Counter
	chunkCorrupts *telemetry.Counter
	jobsDoubleRun *telemetry.Counter
	splitBrain    *telemetry.Counter
	retransmitGB  *telemetry.Gauge

	// Checkpoint-image integrity series (Config.Images set).
	imagesLanded    *telemetry.Counter
	imagesVerified  *telemetry.Counter
	imagesRepaired  *telemetry.Counter
	imagesCorrupt   *telemetry.Counter
	imagesReshipped *telemetry.Counter

	siteUp        []*telemetry.Gauge
	siteSoC       []*telemetry.Gauge
	siteMode      []*telemetry.Gauge
	sitePending   []*telemetry.Gauge
	siteReachable []*telemetry.Gauge
	siteSuspected []*telemetry.Gauge
}

// AttachTelemetry publishes the coordinator's fleet- and site-level series
// into reg and seeds them from the current (possibly replayed) accounting.
func (c *Coordinator) AttachTelemetry(reg *telemetry.Registry) {
	t := &fleetTelemetry{
		sites:     reg.Gauge("insure_fleet_sites", "Sites under this coordinator."),
		sitesLive: reg.Gauge("insure_fleet_sites_live", "Sites currently alive."),

		migrations:    reg.Counter("insure_fleet_migrations_total", "Job-migration shipments dispatched."),
		jobsMoved:     reg.Counter("insure_fleet_jobs_moved_total", "Batch jobs moved between sites."),
		imagesShipped: reg.Counter("insure_fleet_checkpoint_images_shipped_total", "VM checkpoint images shipped off evacuating sites."),
		restored:      reg.Counter("insure_fleet_checkpoint_images_restored_total", "Shipped checkpoint images landed at a destination."),
		sitesLost:     reg.Counter("insure_fleet_sites_lost_total", "Sites lost with their in-flight resources."),

		migratedGB:   reg.Gauge("insure_fleet_migrated_gb", "Cumulative deferred-work volume migrated."),
		checkpointGB: reg.Gauge("insure_fleet_checkpoint_gb", "Cumulative checkpoint volume shipped."),
		energyWh:     reg.Gauge("insure_fleet_migration_energy_wh", "Cumulative backhaul transmission energy."),
		costUSD:      reg.Gauge("insure_fleet_migration_cost_usd", "Cumulative backhaul service cost."),

		heals:         reg.Counter("insure_fleet_heals_total", "Suspected or declared sites that heartbeated again."),
		reroutes:      reg.Counter("insure_fleet_reroutes_total", "Chunked transfers restarted toward a fresh donor."),
		chunkDrops:    reg.Counter("insure_fleet_chunk_drops_total", "Transfer chunks lost in transit."),
		chunkCorrupts: reg.Counter("insure_fleet_chunk_corrupt_total", "Transfer chunks discarded by CRC framing."),
		jobsDoubleRun: reg.Counter("insure_fleet_jobs_double_run_total", "Guard: job IDs that landed twice (must stay 0)."),
		splitBrain:    reg.Counter("insure_fleet_split_brain_total", "Guard: jobs entering a transfer while in flight or landed (must stay 0)."),
		retransmitGB:  reg.Gauge("insure_fleet_retransmit_gb", "Cumulative link bytes beyond goodput."),
	}
	if c.cfg.Images != nil {
		t.imagesLanded = reg.Counter("insure_fleet_images_landed_total", "Checkpoint image pairs written to the store.")
		t.imagesVerified = reg.Counter("insure_fleet_images_verified_total", "Landed images that read back intact.")
		t.imagesRepaired = reg.Counter("insure_fleet_images_repaired_total", "Damaged image copies rebuilt from their mirror.")
		t.imagesCorrupt = reg.Counter("insure_fleet_images_corrupt_total", "Landings with no intact copy (each re-ships).")
		t.imagesReshipped = reg.Counter("insure_fleet_images_reshipped_total", "Shipments dispatched again after a failed verify.")
	}
	for i := range c.sites {
		lbl := telemetry.Label{Key: "site", Value: c.sites[i].name}
		t.siteUp = append(t.siteUp, reg.Gauge("insure_fleet_site_up", "1 while the site is alive.", lbl))
		t.siteSoC = append(t.siteSoC, reg.Gauge("insure_fleet_site_soc", "Site mean transduced state of charge.", lbl))
		t.siteMode = append(t.siteMode, reg.Gauge("insure_fleet_site_mode", "Site survivability rung (0=normal).", lbl))
		t.sitePending = append(t.sitePending, reg.Gauge("insure_fleet_site_pending_gb", "Site deferred batch backlog.", lbl))
		t.siteReachable = append(t.siteReachable, reg.Gauge("insure_fleet_site_reachable", "1 while the site's heartbeat gets through.", lbl))
		t.siteSuspected = append(t.siteSuspected, reg.Gauge("insure_fleet_site_suspected", "1 while the failure detector suspects the site.", lbl))
	}
	c.tel = t
	c.publishTelemetry()
}

// publishTelemetry pushes the current accounting into the registry. Called
// at attach time and after every coordinator pass.
func (c *Coordinator) publishTelemetry() {
	t := c.tel
	if t == nil {
		return
	}
	live := 0
	for i := range c.sites {
		st := &c.sites[i]
		up := 1.0
		if st.dead {
			up = 0
		} else {
			live++
		}
		t.siteUp[i].Set(up)
		t.siteSoC[i].Set(st.soc)
		t.siteMode[i].Set(float64(st.mode))
		t.sitePending[i].Set(st.pendingGB)
		reach := 1.0
		if st.missedBeats > 0 {
			reach = 0
		}
		t.siteReachable[i].Set(reach)
		susp := 0.0
		if st.suspected {
			susp = 1
		}
		t.siteSuspected[i].Set(susp)
	}
	t.sites.Set(float64(len(c.sites)))
	t.sitesLive.Set(float64(live))

	tot := c.totals
	t.migrations.SetTotal(int64(tot.Migrations))
	t.jobsMoved.SetTotal(int64(tot.JobsMoved))
	t.imagesShipped.SetTotal(int64(tot.ImagesShipped))
	t.restored.SetTotal(int64(tot.RestoredVMs))
	t.sitesLost.SetTotal(int64(tot.SitesLost))
	t.migratedGB.Set(tot.MigratedGB)
	t.checkpointGB.Set(tot.CheckpointGB)
	t.energyWh.Set(tot.EnergyWh)
	t.costUSD.Set(float64(tot.Cost))

	t.heals.SetTotal(int64(c.heals))
	t.reroutes.SetTotal(int64(tot.Reroutes))
	t.chunkDrops.SetTotal(int64(tot.ChunkDrops))
	t.chunkCorrupts.SetTotal(int64(tot.ChunkCorrupts))
	t.jobsDoubleRun.SetTotal(int64(tot.JobsDoubleRun))
	t.splitBrain.SetTotal(int64(tot.SplitBrain))
	t.retransmitGB.Set(tot.RetransmitGB)

	if c.cfg.Images != nil && t.imagesLanded != nil {
		is := c.cfg.Images.Stats()
		t.imagesLanded.SetTotal(int64(is.Landed))
		t.imagesVerified.SetTotal(int64(is.Verified))
		t.imagesRepaired.SetTotal(int64(is.Repaired))
		t.imagesCorrupt.SetTotal(int64(is.Corrupt))
		t.imagesReshipped.SetTotal(int64(is.Reshipped))
	}
}
