package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// One routed request, by hand: client 0..100, router 10..90 inside it,
// policy 12..20 and daemon 30..80 inside the router, handler 40..45.
func handBuilt(req uint64) []span {
	return []span{
		{layerHandler, req, 40, 45},
		{layerClient, req, 0, 100},
		{layerDaemon, req, 30, 80},
		{layerRouter, req, 10, 90},
		{layerPolicy, req, 12, 20},
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := append(handBuilt(1), handBuilt(2)...)
	spans = append(spans, span{layerDaemon, primeReqBase, 0, 1000}) // set-up traffic: no root, ignored
	self, roots := selfTimes(spans, liveTree(true))
	if len(roots) != 2 || roots[0] != 100 {
		t.Fatalf("roots = %v, want two of 100", roots)
	}
	want := map[layer]int64{layerClient: 20, layerRouter: 22, layerPolicy: 8, layerDaemon: 45, layerHandler: 5}
	for l, w := range want {
		if len(self[l]) != 2 || self[l][0] != w || self[l][1] != w {
			t.Errorf("%s self = %v, want %d per request", liveNames[l], self[l], w)
		}
	}
	if err := reconcile(self, roots, 0.02); err != nil {
		t.Errorf("a properly nested tree must reconcile: %v", err)
	}
}

func TestSelfTimeWithoutRouterAttachesDaemonToClient(t *testing.T) {
	spans := []span{{layerClient, 7, 0, 100}, {layerDaemon, 7, 20, 70}, {layerHandler, 7, 30, 40}}
	self, roots := selfTimes(spans, liveTree(false))
	if self[layerClient][0] != 50 || self[layerDaemon][0] != 40 || self[layerHandler][0] != 10 {
		t.Errorf("direct self times = client %v daemon %v handler %v", self[layerClient], self[layerDaemon], self[layerHandler])
	}
	if err := reconcile(self, roots, 0.02); err != nil {
		t.Error(err)
	}
}

func TestOverlappingChildrenAreCoveredOnce(t *testing.T) {
	// A retry: two daemon spans overlap 40..60 under one router span.
	spans := []span{{layerClient, 1, 0, 100}, {layerRouter, 1, 0, 100}, {layerDaemon, 1, 20, 60}, {layerDaemon, 1, 40, 80}}
	self, _ := selfTimes(spans, liveTree(true))
	if self[layerRouter][0] != 40 {
		t.Errorf("router self = %d, want 40: the union 20..80 of its children is covered once", self[layerRouter][0])
	}
}

func TestReconcileRejectsLeakingChild(t *testing.T) {
	// The daemon span outlasts its parent by half the request: its self
	// time is counted in full but only part of it is taken off the router.
	spans := []span{{layerClient, 1, 0, 100}, {layerRouter, 1, 10, 90}, {layerDaemon, 1, 30, 140}}
	self, roots := selfTimes(spans, liveTree(true))
	err := reconcile(self, roots, 0.02)
	if err == nil || !strings.Contains(err.Error(), "reconciliation") {
		t.Errorf("a child leaking out of its parent must fail the 2%% check, got %v", err)
	}
	if err := reconcile(make([][]int64, 5), nil, 0.02); err == nil {
		t.Error("no root spans at all must fail")
	}
}

func TestChromeTraceIsBoundedJSON(t *testing.T) {
	var spans []span
	for req := uint64(0); req < chromeTraceRequests+50; req++ {
		spans = append(spans, span{layerClient, req, int64(req) * 10, int64(req)*10 + 9}, span{layerDaemon, req, int64(req)*10 + 2, int64(req)*10 + 5})
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans, liveTree(false), 2); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			slices++
		}
	}
	if slices != 2*chromeTraceRequests {
		t.Errorf("%d slices, want the %d spans of the first %d requests", slices, 2*chromeTraceRequests, chromeTraceRequests)
	}
}
