package main

import (
	"strings"
	"testing"
)

// TestParseShards: -shards entries are url or name=url in fleet order;
// blanks are skipped, a trailing slash is dropped, and an entry without a
// scheme or a host is refused, as is a list with no entry at all.
func TestParseShards(t *testing.T) {
	cases := []struct {
		flag string
		want string // name=url per shard, space-separated; "" with err set
		err  string
	}{
		{"http://h1:8091", "=http://h1:8091", ""},
		{"s0=http://h1:8091, s1 = http://h2:8092 ", "s0=http://h1:8091 s1=http://h2:8092", ""},
		{"http://h1:8091/,s1=http://h2:8092/", "=http://h1:8091 s1=http://h2:8092", ""},
		{"http://h/?a=b", "=http://h/?a=b", ""},
		{",http://h1:8091,, ,http://h2:8092,", "=http://h1:8091 =http://h2:8092", ""},
		{"", "", "-shards is required"},
		{" , ,", "", "-shards is required"},
		{"s0=127.0.0.1:8091", "", `bad URL "127.0.0.1:8091"`},
		{"localhost:8091", "", `bad URL "localhost:8091"`},
		{"s0=http://", "", `bad URL "http://"`},
		{"http://h1:8091,s1=", "", `bad URL ""`},
	}
	for _, c := range cases {
		shards, err := parseShards(c.flag)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("parseShards(%q): %v, want an error containing %q", c.flag, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseShards(%q): %v", c.flag, err)
			continue
		}
		var got []string
		for _, sh := range shards {
			got = append(got, sh.Name+"="+sh.Client.URL())
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("parseShards(%q) = %q, want %q", c.flag, got, c.want)
		}
	}
}
