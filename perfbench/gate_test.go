package main

import (
	"errors"
	"testing"
	"time"
)

// runGate deploys kv-tcp, drives it briefly and returns the gate verdict;
// tamper may edit the deployment's client-side counts before the gate runs.
func runGate(t *testing.T, divergent bool, tamper func(*deployment)) error {
	t.Helper()
	d, err := deploy(workloads["kv-tcp"], 1, nil, divergent)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if _, err := d.run(200*time.Millisecond, 0, nil); err != nil {
		t.Fatal(err)
	}
	if tamper != nil {
		tamper(d)
	}
	return d.gate()
}

func TestGatePassesDeterministicHandlers(t *testing.T) {
	if err := runGate(t, false, nil); err != nil {
		t.Fatalf("gate failed on a correct run: %v", err)
	}
}

func TestGateCatchesReplicaDependentHandler(t *testing.T) {
	err := runGate(t, true, nil)
	if !errors.Is(err, errGate) {
		t.Fatalf("gate = %v, want a state-digest failure", err)
	}
	t.Log(err)
}

func TestGateCatchesLostCommits(t *testing.T) {
	err := runGate(t, false, func(d *deployment) {
		d.acked += 10 // the clients claim more acks than the replicas applied
		d.attempted += 10
	})
	if !errors.Is(err, errGate) {
		t.Fatalf("gate = %v, want a committed-range failure", err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/replobj/replobj/internal/vtime.(*RealRuntime).Lock":           "vtime",
		"github.com/replobj/replobj/internal/adets/sat.(*Scheduler).Submit.func1": "adets",
		"github.com/replobj/replobj/internal/shard.(*GroupState).Current":         "replica",
		"github.com/replobj/replobj.(*Cluster).NewClient":                         "client",
		"main.handlers.func4":          "app",
		"main.(*timedRuntime).Lock":    "trace",
		"main.(*deployment).run.func2": "client",
		"runtime.futex":                "",
		"github.com/replobj/replobj/internal/faultnet.(*Net).Endpoint": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
